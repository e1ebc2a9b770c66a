"""The plan server of the ``serve-warm`` workload, in its own process.

Started by ``serving.py`` with the checkout's ``src`` on ``PYTHONPATH``.
It binds a :class:`~repro.serving.transport.TransportServer` to an ephemeral
localhost port and prints ``{"port": ...}``.  It then answers line commands
on stdin: ``stats`` prints the transport's ``stats()`` as one JSON line;
``stop`` (or end of input) closes the server, which stops its worker pools,
and exits.

Commands are read with ``os.read`` on the raw descriptor, not through
``sys.stdin``: a forked pool worker closes ``sys.stdin`` on start-up, and
would deadlock on the buffer lock a blocked ``sys.stdin`` read holds in
this process at fork time.

    python3 perfbench/serve_proc.py MAX_POOLS
"""

import json
import os
import sys

from repro.serving.transport import TransportServer


def _commands():
    pending = b""
    while True:
        chunk = os.read(0, 4096)
        if not chunk:
            return
        pending += chunk
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            yield line.decode().strip()


def main() -> int:
    server = TransportServer(port=0, max_pools=int(sys.argv[1])).start()
    try:
        print(json.dumps({"port": server.address[1]}), flush=True)
        for command in _commands():
            if command == "stats":
                print(json.dumps({"stats": server.stats()}, default=str), flush=True)
            elif command == "stop":
                break
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
