"""Run ``repro serve`` in this process, so the traced run can wrap it.

Usage::

    python3 perfbench/serve_launcher.py PORT_FILE REPORT TRACE serve [args...]

Writes the bound port to PORT_FILE once the daemon listens.  When the
daemon has drained (SIGTERM), writes REPORT: the process's peak RSS
and, with TRACE=1, the spans and counts the layer wrappers recorded.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spec  # noqa: E402

sys.path.insert(0, str(spec.SRC))


def main(argv) -> int:
    port_file, report, trace, serve_args = Path(argv[0]), Path(argv[1]), argv[2] == "1", argv[3:]
    import layers
    import repro.service.server as server
    from repro.cli import main as repro_main

    if trace:
        layers.install()
        layers.install_service()

    make_server = server.make_server

    def announcing_make_server(session, config):
        srv = make_server(session, config)
        tmp = port_file.with_suffix(".tmp")
        tmp.write_text(str(srv.server_address[1]))
        os.replace(tmp, port_file)
        return srv

    server.make_server = announcing_make_server
    code = repro_main(serve_args)
    peak = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    doc = {"peak_rss_mb": peak}
    if trace:
        doc["trace"] = layers.RECORDER.dump()
    report.write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
