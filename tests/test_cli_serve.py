"""CLI serve + --connect integration tests over real TCP."""

import threading
import time

import pytest

from repro.cli import main
from tests.conftest import EXAMPLE_DATA, EXAMPLE_SCRIPT


def test_serve_and_connect(tmp_path, capsys):
    """`repro serve` in one thread, `repro run-script --connect` in
    another — the product deployment shape."""
    # find a free port by binding port 0 through the serve code itself:
    # run serve with an explicit ephemeral port chosen beforehand.
    import socket
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    (tmp_path / "job.etl").write_text(EXAMPLE_SCRIPT)
    (tmp_path / "input.txt").write_bytes(EXAMPLE_DATA)

    server_result = {}

    def serve():
        server_result["code"] = main([
            "serve", "--port", str(port), "--duration", "4"])

    server_thread = threading.Thread(target=serve, daemon=True)
    server_thread.start()
    # wait for the socket to come up
    deadline = time.time() + 3
    while time.time() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port),
                                     timeout=0.2).close()
            break
        except OSError:
            time.sleep(0.05)

    code = main(["run-script", str(tmp_path / "job.etl"),
                 "--connect", f"127.0.0.1:{port}"])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 inserted" in out

    server_thread.join(timeout=10)
    assert server_result.get("code") == 0
    final = capsys.readouterr().out
    assert "served 1 jobs, 2 rows" in final


def test_serve_rejects_the_reactor_flag(capsys):
    """``serve`` has one front end; the reactor's flag is gone."""
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--async-frontend", "--duration", "0"])
    assert excinfo.value.code == 2
    assert "--async-frontend" in capsys.readouterr().err


def test_interpreter_set_chunk_and_retries(stack):
    """`.set chunk_kbytes` / `.set retry_attempts` reach the client."""
    from repro.legacy.script import ScriptInterpreter, parse_script
    script = EXAMPLE_SCRIPT.replace(
        ".begin import",
        ".set chunk_kbytes 1;\n.set retry_attempts 2;\n.begin import")
    interp = ScriptInterpreter(
        stack.node.connect, files={"input.txt": EXAMPLE_DATA})
    result = interp.run(parse_script(script))
    assert result.last_import.rows_inserted == 2
    assert interp.settings["chunk_kbytes"] == "1"
