"""Interpreter: executes a parsed ETL job script via the legacy client.

The interpreter owns no protocol knowledge — it translates script commands
into :class:`~repro.legacy.client.LegacyEtlClient` calls.  Input/output
files come from an in-memory mapping (tests, benchmarks) or from disk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import ScriptError
from repro.legacy.client import (
    ExportJobResult, ExportJobSpec, ImportJobResult, ImportJobSpec,
    LegacyEtlClient, StatementResult,
)
from repro.legacy.script import ast

__all__ = ["ScriptInterpreter", "ScriptResult"]


@dataclass
class ScriptResult:
    """Everything a script run produced, in execution order."""

    imports: list[ImportJobResult] = field(default_factory=list)
    exports: list[ExportJobResult] = field(default_factory=list)
    statements: list[StatementResult] = field(default_factory=list)

    @property
    def last_import(self) -> ImportJobResult:
        if not self.imports:
            raise ScriptError("script ran no import job")
        return self.imports[-1]


@dataclass
class _ImportState:
    begin: ast.BeginImportCmd
    import_cmd: ast.ImportCmd | None = None


@dataclass
class _ExportState:
    begin: ast.BeginExportCmd
    export_cmd: ast.ExportCmd | None = None


class ScriptInterpreter:
    """Runs a parsed script against any backend speaking the legacy protocol.

    ``connect`` is passed to :class:`LegacyEtlClient`; ``files`` maps input
    file names to bytes and receives output files (falling back to
    ``base_dir`` on disk when a name is absent from the mapping).
    """

    def __init__(self, connect, files: dict[str, bytes] | None = None,
                 base_dir: str = ".", chunk_bytes: int = 64 * 1024,
                 timeout: float | None = 30.0):
        self.client = LegacyEtlClient(connect, timeout=timeout)
        self.files = files if files is not None else {}
        self.base_dir = base_dir
        self.chunk_bytes = chunk_bytes
        self.settings: dict[str, str] = {}

    # -- file access ---------------------------------------------------------

    def _read_file(self, name: str) -> bytes:
        if name in self.files:
            return self.files[name]
        path = os.path.join(self.base_dir, name)
        with open(path, "rb") as handle:
            return handle.read()

    def _write_file(self, name: str, data: bytes) -> None:
        self.files[name] = data

    # -- execution -----------------------------------------------------------

    def run(self, script: ast.Script) -> ScriptResult:
        """Execute every command of a parsed script in order."""
        result = ScriptResult()
        import_state: _ImportState | None = None
        export_state: _ExportState | None = None

        for command in script.commands:
            if isinstance(command, ast.LogonCmd):
                self.client.logon(command.host, command.user,
                                  command.password)
            elif isinstance(command, ast.LogoffCmd):
                self.client.logoff()
            elif isinstance(command, ast.LayoutDecl):
                pass  # registered during parsing
            elif isinstance(command, ast.DmlDecl):
                pass  # registered during parsing
            elif isinstance(command, ast.SetCmd):
                self.settings[command.name] = command.value
            elif isinstance(command, ast.SqlCmd):
                result.statements.append(
                    self.client.execute_sql(command.sql))
            elif isinstance(command, ast.BeginImportCmd):
                if import_state or export_state:
                    raise ScriptError(
                        "nested .begin blocks are not allowed",
                        line=command.line)
                import_state = _ImportState(command)
            elif isinstance(command, ast.ImportCmd):
                if import_state is None:
                    raise ScriptError(
                        ".import outside a .begin import block",
                        line=command.line)
                import_state.import_cmd = command
            elif isinstance(command, ast.EndLoadCmd):
                if import_state is None or import_state.import_cmd is None:
                    raise ScriptError(
                        ".end load without a complete import block",
                        line=command.line)
                result.imports.append(
                    self._run_import(script, import_state))
                import_state = None
            elif isinstance(command, ast.BeginExportCmd):
                if import_state or export_state:
                    raise ScriptError(
                        "nested .begin blocks are not allowed",
                        line=command.line)
                export_state = _ExportState(command)
            elif isinstance(command, ast.ExportCmd):
                if export_state is None:
                    raise ScriptError(
                        ".export outside a .begin export block",
                        line=command.line)
                export_state.export_cmd = command
            elif isinstance(command, ast.EndExportCmd):
                if export_state is None or export_state.export_cmd is None:
                    raise ScriptError(
                        ".end export without a complete export block",
                        line=command.line)
                result.exports.append(self._run_export(export_state))
                export_state = None
            else:  # pragma: no cover - parser produces no other commands
                raise ScriptError(
                    f"unhandled command {type(command).__name__}")

        if import_state is not None:
            raise ScriptError(".begin import block never ended")
        if export_state is not None:
            raise ScriptError(".begin export block never ended")
        return result

    def _int_setting(self, name: str) -> int | None:
        value = self.settings.get(name)
        return int(value) if value is not None else None

    def _run_import(self, script: ast.Script,
                    state: _ImportState) -> ImportJobResult:
        import_cmd = state.import_cmd
        assert import_cmd is not None
        layout = script.layout(import_cmd.layout_name)
        dml = script.dml(import_cmd.apply_label)
        chunk_kb = self._int_setting("chunk_kbytes")
        retry_attempts = self._int_setting("retry_attempts")
        spec = ImportJobSpec(
            target_table=state.begin.target_table,
            et_table=state.begin.et_table,
            uv_table=state.begin.uv_table,
            layout=layout,
            apply_sql=dml.sql,
            data=self._read_file(import_cmd.infile),
            format_spec=import_cmd.format_spec,
            sessions=state.begin.sessions,
            chunk_bytes=(chunk_kb * 1024 if chunk_kb
                         else self.chunk_bytes),
            max_errors=self._int_setting("max_errors"),
            max_retries=self._int_setting("max_retries"),
            retry_attempts=retry_attempts or 0,
        )
        return self.client.run_import(spec)

    def _run_export(self, state: _ExportState) -> ExportJobResult:
        export_cmd = state.export_cmd
        assert export_cmd is not None
        spec = ExportJobSpec(
            select_sql=export_cmd.select_sql,
            format_spec=export_cmd.format_spec,
            sessions=state.begin.sessions,
        )
        result = self.client.run_export(spec)
        self._write_file(export_cmd.outfile, result.data)
        return result
