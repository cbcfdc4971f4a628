"""Anti-drift tests: one protocol registry, every surface agrees.

The protocol set is defined once (``repro.sim.protocols.PROTOCOLS``);
the oracle table, the fuzz/check CLI defaults, the analytical scheme
lookup, and the generated help text must all track it.  Each of these
once drifted by hand-maintained lists (the fuzz default silently
omitted ``base`` and ``directory``; the predict help hard-coded four
schemes), which these tests make impossible to reintroduce.
"""

from pathlib import Path

from repro.cli import (
    _scheme_help,
    build_parser,
    registry_disciplines,
    registry_protocols,
)
from repro.core.bus import BusSystem
from repro.core.schemes import known_schemes, scheme_by_name
from repro.queueing.disciplines import SERVICE_DISCIPLINES, solve_bus_discipline
from repro.sim.bus import DISCIPLINES
from repro.sim.machine import SimulationConfig
from repro.sim.onepass import family_support
from repro.sim.protocols import PROTOCOLS, protocol_aliases
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


ARCHITECTURE = Path(__file__).resolve().parents[1] / "docs" / "ARCHITECTURE.md"


def documented_sweep_engines() -> dict[str, str]:
    """Protocol -> sweep-engine column of ARCHITECTURE's
    "Protocol × engine support" table, as ``family_support`` names it
    (``onepass``, ``epoch``, or ``fallback``)."""
    lines = ARCHITECTURE.read_text(encoding="utf-8").splitlines()
    start = next(
        i for i, line in enumerate(lines)
        if line.startswith("Protocol × engine support")
    )
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    header, _rule, *body = rows
    column = header.index("sweep engine")
    engines = {}
    for row in body:
        engine = row[column].strip("`")
        if engine == "per-config fallback":
            engine = "fallback"
        for name in row[0].split(" / "):
            assert name not in engines, f"{name} listed twice"
            engines[name] = engine
    return engines


class TestEngineSupportDocAgreement:
    """The support matrix in docs/ARCHITECTURE.md is prose; the gate
    is ``family_support``.  Every registered protocol must appear in
    the table, with the sweep engine the gate actually routes it to."""

    def test_every_protocol_is_documented_once(self):
        assert set(documented_sweep_engines()) == set(PROTOCOLS)

    def test_sweep_engine_column_matches_family_support(self):
        documented = documented_sweep_engines()
        for name in PROTOCOLS:
            assert documented[name] == family_support(name)[0], name
