"""Anti-drift tests: one registry per fact, every surface agrees.

The protocol set is defined once (``repro.sim.protocols.PROTOCOLS``);
the oracle table, the fuzz/check CLI defaults, the analytical scheme
lookup, and the generated help text must all track it.  Each of these
once drifted by hand-maintained lists (the fuzz default silently
omitted ``base`` and ``directory``; the predict help hard-coded four
schemes), which these tests make impossible to reintroduce.  The
engines are declared once too (``repro.sim.engines.ENGINES``): the
documented support matrices and the benchmark's per-engine metrics
must name what the registry routes.
"""

import ast
from pathlib import Path

from repro.cli import (
    _scheme_help,
    build_parser,
    registry_disciplines,
    registry_protocols,
)
from repro.core.bus import BusSystem
from repro.core.operations import (
    DIRTY_VICTIM_OPERATIONS,
    MISS_OPERATIONS,
    CostTable,
)
from repro.core.schemes import known_schemes, scheme_by_name
from repro.queueing.disciplines import SERVICE_DISCIPLINES, solve_bus_discipline
from repro.sim.bus import DISCIPLINES
from repro.sim.engines import (
    ARBITRATED,
    COLUMNAR,
    ENGINES,
    FALLBACK,
    LEGACY,
    MACHINE_RUN,
    deferred_grants,
    family_support,
    machine_engine,
)
from repro.sim.machine import SimulationConfig
from repro.sim.protocols import PROTOCOLS, protocol_aliases, protocol_class
from repro.verify import invariants
from repro.verify.oracles import ORACLES


class TestProtocolRegistryAgreement:
    def test_every_protocol_has_an_oracle(self):
        assert set(PROTOCOLS) == set(ORACLES)

    def test_oracle_keys_match_their_class_attribute(self):
        for name, oracle_class in ORACLES.items():
            assert oracle_class.protocol == name

    def test_fuzz_and_check_defaults_equal_the_registry(self):
        assert registry_protocols() == tuple(sorted(PROTOCOLS))

    def test_cli_defaults_are_registry_sentinels(self):
        # "" in both commands resolves through registry_protocols();
        # a literal list here would be exactly the drift bug.
        assert build_parser().parse_args(["fuzz"]).protocols == ""
        assert build_parser().parse_args(["check"]).protocol == ""

    def test_default_fuzz_covers_the_once_omitted_protocols(self):
        assert {"base", "directory"} <= set(registry_protocols())

    def test_hybrids_are_registered_everywhere(self):
        hybrids = {"hybrid-2", "hybrid-4", "hybrid-limit"}
        assert hybrids <= set(PROTOCOLS)
        assert hybrids <= set(ORACLES)
        assert hybrids <= set(registry_protocols())


class TestSchemeRegistryAgreement:
    def test_every_protocol_name_is_a_scheme_name(self):
        # `swcc predict <protocol>` must accept every simulator
        # protocol name.
        for name in PROTOCOLS:
            scheme_by_name(name)

    def test_predict_help_lists_every_scheme_and_alias(self):
        help_text = _scheme_help()
        for canonical, aliases in known_schemes().items():
            assert canonical.lower() in help_text
            for alias in aliases:
                assert alias in help_text

    def test_known_schemes_round_trip_through_lookup(self):
        for canonical, aliases in known_schemes().items():
            scheme = scheme_by_name(canonical)
            assert scheme.name == canonical
            for alias in aliases:
                assert scheme_by_name(alias) is scheme


class TestDisciplineRegistryAgreement:
    """The bus discipline set is defined twice on purpose — the
    simulator (``repro.sim.bus.DISCIPLINES``) and the queueing model
    (``repro.queueing.disciplines.SERVICE_DISCIPLINES``) stay
    import-independent — so agreement lives here, not in an import."""

    def test_model_registry_tracks_the_simulator(self):
        assert SERVICE_DISCIPLINES == DISCIPLINES

    def test_cli_disciplines_equal_the_registry(self):
        assert registry_disciplines() == DISCIPLINES

    def test_fuzz_disciplines_default_is_a_registry_sentinel(self):
        # "" resolves through registry_disciplines(); a literal list
        # here would be exactly the drift bug.
        assert build_parser().parse_args(["fuzz"]).disciplines == ""

    def test_predict_accepts_every_registered_discipline(self):
        parser = build_parser()
        for discipline in DISCIPLINES:
            args = parser.parse_args(
                ["predict", "dragon", "16", "--discipline", discipline]
            )
            assert args.discipline == discipline

    def test_defaults_are_fcfs_in_both_layers(self):
        assert SimulationConfig().bus_discipline == "fcfs"
        assert BusSystem().bus_discipline == "fcfs"

    def test_model_solver_accepts_every_registered_discipline(self):
        for discipline in DISCIPLINES:
            solution = solve_bus_discipline(discipline, 4, 20.0, 4.0)
            assert solution.discipline == discipline


class TestProtocolAliases:
    def test_aliases_resolve_to_their_target(self):
        from repro.sim.protocols import protocol_class

        for name in PROTOCOLS:
            for alias in protocol_aliases(name):
                assert protocol_class(alias) is protocol_class(name)

    def test_hybrid_shorthand(self):
        assert "hybrid" in protocol_aliases("hybrid-4")
        assert "competitive" in protocol_aliases("hybrid-limit")


class TestVerifierOperationSets:
    """The invariant checker keeps its own miss and dirty-victim sets on
    purpose (it must not share a bug with the engines it checks), so
    their agreement with ``repro.core.operations`` lives here."""

    def test_miss_operations_agree(self):
        assert invariants._MISS_OPERATIONS == MISS_OPERATIONS

    def test_dirty_victim_operations_agree(self):
        assert invariants._DIRTY_VICTIM_OPERATIONS == DIRTY_VICTIM_OPERATIONS


ROOT = Path(__file__).resolve().parents[1]
ARCHITECTURE = ROOT / "docs" / "ARCHITECTURE.md"


def documented_table(heading: str) -> tuple[list[str], list[list[str]]]:
    """Header and body rows of the first table after ``heading``."""
    lines = ARCHITECTURE.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(heading))
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    header, _rule, *body = rows
    return header, body


def documented_protocols() -> dict[str, list[str]]:
    """Protocol -> columnar, proven-hit spans and sweep engine cells of
    the "Protocol × engine support" table (its mechanism column is
    prose)."""
    header, body = documented_table("Protocol × engine support")
    assert header[:4] == [
        "protocol", "columnar", "proven-hit spans", "sweep engine"
    ]
    documented = {}
    for row in body:
        for name in row[0].split(" / "):
            assert name not in documented, f"{name} listed twice"
            documented[name] = row[1:4]
    return documented


def spans(cls) -> str:
    """Which records ``machine._proven_hits`` may prove, by flags."""
    if cls.read_hit_is_free and cls.remote_traffic_preserves_residency:
        return "every record"
    return "single-owner blocks" if cls.private_blocks_are_local else "none"


class TestEngineSupportDocAgreement:
    """The support matrices in docs/ARCHITECTURE.md are prose; the
    routing is the engine registry.  Every registered protocol and
    every bus configuration row must show what the registry routes."""

    def test_every_protocol_is_documented_once(self):
        assert set(documented_protocols()) == set(PROTOCOLS)

    def test_sweep_engine_column_matches_family_support(self):
        documented = documented_protocols()
        for name, cls in PROTOCOLS.items():
            columnar = machine_engine(
                COLUMNAR.label, cls, CostTable.bus(), "fcfs", 0.0
            )
            sweep = family_support(name)[0]
            assert documented[name] == [
                "yes" if columnar is COLUMNAR else "no",
                spans(cls),
                "per-config fallback" if sweep == FALLBACK else f"`{sweep}`",
            ], name

    def test_bus_matrix_matches_the_registry(self):
        header, body = documented_table("Support matrix (bus configuration")
        # Each of these labels is also the request that runs it.
        requests = [COLUMNAR.label, LEGACY.label, ARBITRATED.label]
        assert header[1:4] == [f'`engine="{r}"`' for r in requests]
        base, dragon = protocol_class("base"), protocol_class("dragon")
        for row in body:
            discipline = row[0].split("`")[1]
            overhead = float(row[0].rsplit(" ", 1)[1])
            routed = [
                machine_engine(r, base, CostTable.bus(), discipline, overhead)
                for r in requests
            ]
            cells = [
                f"`{engine.label}`"
                + (" (deferred grants)"
                   if deferred_grants(engine, discipline) else "")
                for engine in routed
            ]
            sweeps = [
                family_support(cls, None, discipline, overhead)[0]
                for cls in (base, dragon)
            ]
            cells.append(" / ".join(f"`{s}`" for s in sweeps))
            assert row[1:] == cells, row[0]

    def test_benchmark_keys_are_replay_labels(self):
        """``perfbench/run.py`` keys ``ns_per_record`` on labels; a
        renamed label would silently empty that metric."""
        tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
        keys = next(
            ast.literal_eval(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(
                getattr(target, "id", None) == "MACHINE_ENGINES"
                for target in node.targets
            )
        )
        replay = {e.label for e in ENGINES.values() if e.entry == MACHINE_RUN}
        assert set(keys) <= replay
