"""Structural coverage of the machine-state declarations.

Snapshots, restores and digests all derive from each part's ``STATE``
declaration (:mod:`repro.microarch.state`), so early exit stays exact
only while the declarations name every piece of state.  These tests walk
booted, run machines - plain, beam mode, and a campaign injector's
machine after injections - and check that every instance attribute of the
:class:`System` and of each of its parts (cache lines and TLB entries
included) is either declared state or a named exclusion.  The mutant
tests show that an undeclared field is caught and named.
"""

from __future__ import annotations

import pytest

from repro.beam.experiment import BeamCampaignConfig, BeamExperiment
from repro.injection.campaign import CampaignConfig, prepare_image
from repro.injection.components import Component, component_bits
from repro.injection.fault import generate_faults
from repro.injection.parallel import ImageInjector
from repro.microarch import system as system_module
from repro.microarch.cache import Cache, CacheLine
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.core import Core
from repro.microarch.system import System
from repro.microarch.translate import translated
from repro.workloads import get_workload


def _instance_attributes(obj) -> set[str]:
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        names.update(
            name for name in getattr(cls, "__slots__", ()) if hasattr(obj, name)
        )
    return names


def _elements(container) -> list:
    if container and isinstance(container[0], list):
        return [element for row in container for element in row]
    return list(container)


def undeclared(system) -> list[str]:
    """Every attribute no declaration names, and every name declared twice
    or declared but absent, as ``"<part>.<attribute>: <problem>"``."""
    problems: list[str] = []

    def check(label: str, attributes: set[str], *lists) -> None:
        named: set[str] = set()
        for names in lists:
            problems.extend(
                f"{label}.{name}: named twice" for name in sorted(named & set(names))
            )
            named |= set(names)
        problems.extend(
            f"{label}.{name}: undeclared" for name in sorted(attributes - named)
        )
        problems.extend(
            f"{label}.{name}: declared but absent"
            for name in sorted(named - attributes)
        )

    check("system", _instance_attributes(system), System.PARTS, System.CONSTANTS)
    for name in System.PARTS:
        part = getattr(system, name)
        state = part.STATE
        problems.extend(
            f"{name}.{excluded}: exclusion without a reason"
            for excluded, reason in {**state.attachments, **state.derived}.items()
            if not reason
        )
        problems.extend(
            f"{name}.{counter}: counter is not a declared field"
            for counter in state.counters
            if counter not in state.fields
        )
        check(
            name,
            _instance_attributes(part),
            state.fields,
            state.constants,
            state.attachments,
            state.derived,
        )
        for group in state.groups:
            record = getattr(group, "record", None)
            if record is None:
                continue
            cls, fields = record
            for container in group.names:
                for index, element in enumerate(_elements(getattr(part, container))):
                    label = f"{name}.{container}[{index}]"
                    if type(element) is not cls:
                        problems.append(
                            f"{label}: {type(element).__name__} is not {cls.__name__}"
                        )
                    check(label, _instance_attributes(element), fields)
    return problems


def _plain_machine() -> System:
    workload = get_workload("StringSearch")
    system = System(workload.program(SCALED_A9_CONFIG.layout), config=SCALED_A9_CONFIG)
    with translated(system, True):
        assert system.run(max_cycles=200_000_000).exited_cleanly
    return system


def _beam_machine() -> System:
    workload = get_workload("StringSearch")
    experiment = BeamExperiment(BeamCampaignConfig(beam_hours=1.0, seed=0))
    system = experiment._beam_system(workload, workload.reference_output())
    assert system.run(max_cycles=200_000_000).exited_cleanly
    system.soft_reset()
    assert system.run(max_cycles=200_000_000).exited_cleanly
    return system


@pytest.fixture(scope="module")
def injector():
    """A campaign injector whose machine ran one fault per component with
    lifetime events (taint probes, register wrappers) and the translator."""
    workload = get_workload("StringSearch")
    golden, image = prepare_image(workload, CampaignConfig(faults_per_component=1))
    injector = ImageInjector(image)
    for component in Component:
        for fault in generate_faults(
            component,
            component_bits(SCALED_A9_CONFIG, component),
            golden.cycles,
            count=1,
            seed=3,
        ):
            injector.run_fault_ex(fault)
    yield injector
    injector.close()


@pytest.mark.parametrize("build", [_plain_machine, _beam_machine])
def test_every_attribute_is_declared_or_excluded(build):
    assert undeclared(build()) == []


def test_injector_machine_is_covered(injector):
    assert undeclared(injector.system) == []


class TestMutants:
    """An undeclared field added to a part is named by the checker."""

    def test_undeclared_core_field(self, monkeypatch):
        init = Core.__init__

        def mutant(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.return_stack = []

        monkeypatch.setattr(Core, "__init__", mutant)
        assert "core.return_stack: undeclared" in undeclared(_plain_machine())

    def test_undeclared_cache_field(self, monkeypatch):
        init = Cache.__init__

        def mutant(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.victim = CacheLine(self.line_size)

        monkeypatch.setattr(Cache, "__init__", mutant)
        problems = undeclared(_plain_machine())
        for name in System.CACHES:
            assert f"{name}.victim: undeclared" in problems

    def test_undeclared_cache_line_field(self):
        class EccLine(CacheLine):
            __slots__ = ("ecc",)

            def __init__(self, line_size):
                super().__init__(line_size)
                self.ecc = 0

        system = _plain_machine()
        system.l1d.sets[0][1] = EccLine(system.l1d.line_size)
        problems = undeclared(system)
        assert "l1d.sets[1]: EccLine is not CacheLine" in problems
        assert "l1d.sets[1].ecc: undeclared" in problems

    def test_undeclared_device_field(self, monkeypatch):
        init = system_module._DeviceState.__init__

        def mutant(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.uart_fifo = bytearray()

        monkeypatch.setattr(system_module._DeviceState, "__init__", mutant)
        assert "_devices.uart_fifo: undeclared" in undeclared(_beam_machine())

    def test_declared_but_absent_field(self):
        system = _plain_machine()
        del system.core.next_timer
        assert "core.next_timer: declared but absent" in undeclared(system)
