"""stats()["storage"] and the hyperq_table_bytes gauge (PR 8).

The columnar storage layer is only observable if per-table footprint
surfaces in both the operational snapshot and the Prometheus
exposition, and the two must agree.
"""

import re

import pytest

from repro.bench.harness import build_stack
from repro.cdw import CdwEngine, CloudStore
from repro.core.config import HyperQConfig
from repro.core.gateway import HyperQNode


@pytest.fixture(scope="module")
def loaded_stack():
    """A node with two populated tables, shared by the assertions."""
    with build_stack(config=HyperQConfig()) as stack:
        stack.engine.execute(
            "CREATE TABLE ORDERS (ID INT, AMT DOUBLE, NOTE NVARCHAR)")
        stack.engine.execute("CREATE TABLE EMPTY (ID INT)")
        for i in range(200):
            stack.engine.execute(
                f"INSERT INTO ORDERS VALUES ({i}, {i}.5, 'n{i}')")
        yield stack


class TestStorageSnapshot:
    def test_stats_lists_every_table(self, loaded_stack):
        storage = loaded_stack.node.stats()["storage"]
        assert set(storage) >= {"ORDERS", "EMPTY"}
        orders = storage["ORDERS"]
        assert orders["rows"] == 200
        assert orders["bytes"] > 0
        assert orders["mode"] == "columnar"
        assert storage["EMPTY"]["rows"] == 0

    def test_row_mode_reported(self):
        store = CloudStore()
        engine = CdwEngine(store, columnar=False)
        with HyperQNode(engine, store) as node:
            engine.execute("CREATE TABLE R (ID INT)")
            engine.execute("INSERT INTO R VALUES (1)")
            assert node.stats()["storage"]["R"]["mode"] == "rows"


class TestTableBytesGauge:
    def test_exposition_round_trip(self, loaded_stack):
        node = loaded_stack.node
        storage = node.stats()["storage"]
        text = node.render_prometheus()
        assert "# TYPE hyperq_table_bytes gauge" in text
        exposed = {
            match.group(1): float(match.group(2))
            for match in re.finditer(
                r'hyperq_table_bytes\{table="([^"]+)"\} (\S+)', text)
        }
        for name in ("ORDERS", "EMPTY"):
            assert exposed[name] == pytest.approx(storage[name]["bytes"])

    def test_gauge_tracks_growth(self, loaded_stack):
        node = loaded_stack.node
        before = node.stats()["storage"]["ORDERS"]["bytes"]
        loaded_stack.engine.execute(
            "INSERT INTO ORDERS VALUES (999, 1.0, 'tail')")
        after = node.stats()["storage"]["ORDERS"]["bytes"]
        assert after > before
