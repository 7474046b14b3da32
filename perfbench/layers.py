"""Per-layer tracing for the traced benchmark run.

The traced run wraps the layers' public entry points from outside the
program: each wrap point is named by ``module:attribute`` (or
``module:Class.method``), resolved at install time, and replaced in every
loaded ``repro`` module that bound the same object by name.  A name that
no longer resolves marks its layer ``absent`` instead of failing the run,
so renames and folds in the program only blank the affected counters.

Every wrapped call is a span on one in-memory stack: its duration is
added to the point's ``total`` and its duration minus the time of the
wrapped calls it made to its ``self`` time.  Nothing is written until the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: (point name, target, layer) - the layer is what ``absent`` reports.
POINTS = (
    ("run", "repro.microarch.system:System.run", "microarch"),
    ("build", "repro.microarch.system:System.__init__", "microarch.build"),
    ("restore", "repro.microarch.snapshot:SystemSnapshot.restore", "microarch.snapshot"),
    ("restore_delta", "repro.microarch.snapshot:DeltaRestorer.restore", "microarch.snapshot"),
    ("system_digest", "repro.microarch.digest:system_digest", "microarch.digest"),
    ("arch_digest", "repro.microarch.digest:arch_digest", "microarch.digest"),
    ("attach_translator", "repro.microarch.translate:attach_translator", "microarch.translate"),
    ("prepare_image", "repro.injection.campaign:prepare_image", "injection.campaign"),
    ("plan", "repro.injection.parallel:run_injection_plan", "injection.parallel"),
    ("fault", "repro.injection.parallel:ImageInjector.run_fault_ex", "injection.parallel"),
    ("classify", "repro.injection.classify:classify_run", "injection.classify"),
    ("journal", "repro.injection.journal:InjectionJournal.record", "injection.journal"),
    ("journal_q", "repro.injection.journal:InjectionJournal.record_quarantine", "injection.journal"),
    ("adaptive", "repro.injection.adaptive:AdaptiveCampaign.run_workload", "injection.adaptive"),
    ("learned", "repro.injection.learned:LearnedPlanner.plan", "injection.learned"),
    ("taint", "repro.observability.taint:install_taint", "observability.taint"),
    ("activity_attach", "repro.observability.golden:ActivityRecorder.attach", "observability.golden"),
    ("activity_sweep", "repro.observability.golden:ActivityRecorder.sweep", "observability.golden"),
    ("activity_finish", "repro.observability.golden:ActivityRecorder.finish", "observability.golden"),
    ("beam_warmup", "repro.beam.experiment:BeamExperiment._golden_beam_run", "beam"),
    ("strike", "repro.beam.experiment:BeamExperiment._strike_effect", "beam"),
    ("beam_workload", "repro.beam.experiment:BeamExperiment.run_workload", "beam"),
    ("render_fig3", "repro.experiments.fig3:render", "analysis"),
    ("render_fig4", "repro.experiments.fig4:render", "analysis"),
    ("render_fig5", "repro.experiments.fig5:render", "analysis"),
    ("render_table4", "repro.experiments.table4:render", "analysis"),
)


def _resolve(target: str):
    """``(owner, attribute, original)`` for a target, or ``None``."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attribute)
    else:
        original = getattr(owner, attribute, None)
    if not callable(original):
        return None
    return owner, attribute, original


class LayerTracer:
    """Installs the wrap points and accumulates span times and counts."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.fault_seconds: list[float] = []
        self.ended: dict[str, int] = {}
        self.cycles_saved = 0
        self.events = 0
        self.sim_cycles = 0
        self.adaptive_rounds = 0
        self.platform_strikes = 0
        self.translators: list = []
        self.absent: set[str] = set()
        #: Child-time accumulator of each open span (innermost last).
        self._stack: list[float] = [0.0]
        self._installed: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, points=POINTS) -> "LayerTracer":
        for name, target, layer in points:
            resolved = _resolve(target)
            if resolved is None:
                self.absent.add(layer)
                continue
            owner, attribute, original = resolved
            wrapper = self._wrap(name, original)
            setattr(owner, attribute, wrapper)
            self._installed.append((owner, attribute, original))
            if not isinstance(owner, type):
                # Rebind copies that other modules imported by name.
                for module in list(sys.modules.values()):
                    if (
                        module is not owner
                        and getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attribute, None) is original
                    ):
                        setattr(module, attribute, wrapper)
                        self._installed.append((module, attribute, original))
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    def _wrap(self, name: str, original):
        after = getattr(self, f"_after_{name}", None)
        before = getattr(self, f"_before_{name}", None)
        stack = self._stack
        clock = time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                calls[name] = calls.get(name, 0) + 1
                total[name] = total.get(name, 0.0) + elapsed
                self_time[name] = self_time.get(name, 0.0) + elapsed - children
                if after is not None:
                    after(token, args, result, elapsed)

        return wrapper

    # -- per-point observations ----------------------------------------------

    @staticmethod
    def _before_run(args):
        return args[0].core.cycle

    def _after_run(self, start_cycle, args, _result, _elapsed):
        self.sim_cycles += args[0].core.cycle - start_cycle

    def _after_attach_translator(self, _token, _args, translator, _elapsed):
        if translator is not None:
            self.translators.append(translator)

    def _after_fault(self, _token, _args, result, elapsed):
        self.fault_seconds.append(elapsed)
        if result is None:
            return
        self.ended[result.ended_by] = self.ended.get(result.ended_by, 0) + 1
        self.cycles_saved += result.cycles_saved
        self.events += len(result.events)

    def _after_adaptive(self, _token, args, _result, _elapsed):
        campaign, workload = args[0], args[1]
        diagnostics = getattr(campaign, "diagnostics", {}).get(workload.name)
        if diagnostics is not None:
            self.adaptive_rounds += diagnostics.rounds

    def _after_beam_workload(self, _token, _args, result, _elapsed):
        if result is not None:
            self.platform_strikes += result.platform_strikes

    # -- reporting --------------------------------------------------------------

    def _sum(self, table: dict, *names: str) -> float:
        return sum(table.get(name, 0) for name in names)

    def translator_totals(self) -> dict[str, int]:
        """Translator counters summed over every translator attached."""
        totals = dict.fromkeys(
            ("dispatches", "block_runs", "compiled", "guard_failures", "refusals"), 0
        )
        resolved = _resolve("repro.microarch.profile:translator_stats")
        if resolved is None:
            self.absent.add("microarch.translate")
            return totals
        translator_stats = resolved[2]
        for translator in self.translators:
            stats = translator_stats(translator)
            totals["dispatches"] += stats.get("dispatches", 0)
            totals["block_runs"] += stats.get("block_runs", 0)
            totals["compiled"] += stats.get("blocks_compiled", 0)
            totals["guard_failures"] += stats.get("guard_failures", 0)
            totals["refusals"] += sum(stats.get("refusals", {}).values())
        return totals

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values (units are in :data:`UNITS`)."""
        run_s = self.self_time.get("run", 0.0)
        faults = sorted(self.fault_seconds)
        translate = self.translator_totals()
        return {
            "microarch.sim_cycles": self.sim_cycles,
            "microarch.run_s": run_s,
            "microarch.cycles_per_s": self.sim_cycles / run_s if run_s else 0.0,
            "microarch.system_builds": self.calls.get("build", 0),
            "microarch.build_s": self.total.get("build", 0.0),
            "microarch.restores": self._sum(self.calls, "restore", "restore_delta"),
            "microarch.restore_s": self._sum(self.total, "restore", "restore_delta"),
            "microarch.digests": self._sum(self.calls, "system_digest", "arch_digest"),
            "microarch.digest_s": self._sum(self.total, "system_digest", "arch_digest"),
            "microarch.translate.dispatches": translate["dispatches"],
            "microarch.translate.block_runs": translate["block_runs"],
            "microarch.translate.compiled": translate["compiled"],
            "microarch.translate.guard_failures": translate["guard_failures"],
            "microarch.translate.refusals": translate["refusals"],
            "injection.golden_s": self.total.get("prepare_image", 0.0),
            "injection.faults": len(faults),
            "injection.fault_s": sum(faults),
            "injection.fault_p50_ms": 1e3 * percentile(faults, 0.50),
            "injection.fault_p98_ms": 1e3 * percentile(faults, 0.98),
            "injection.ended.full": self.ended.get("full", 0),
            "injection.ended.digest": self.ended.get("digest", 0),
            "injection.ended.dead_cell": self.ended.get("dead-cell", 0),
            "injection.cycles_saved": self.cycles_saved,
            "injection.classify_s": self.total.get("classify", 0.0),
            "injection.journal_records": self._sum(self.calls, "journal", "journal_q"),
            "injection.journal_s": self._sum(self.total, "journal", "journal_q"),
            "injection.adaptive.rounds": self.adaptive_rounds,
            "injection.adaptive.self_s": self.self_time.get("adaptive", 0.0),
            "injection.learned.train_s": self.total.get("learned", 0.0),
            "observability.taint_installs": self.calls.get("taint", 0),
            "observability.taint_s": self.total.get("taint", 0.0),
            "observability.events": self.events,
            "observability.activity_s": self._sum(
                self.total, "activity_attach", "activity_sweep", "activity_finish"
            ),
            "beam.warmup_s": self.total.get("beam_warmup", 0.0),
            "beam.strikes": self.calls.get("strike", 0),
            "beam.strike_s": self.total.get("strike", 0.0),
            "beam.platform_strikes": self.platform_strikes,
            "analysis.render_s": self._sum(
                self.total, "render_fig3", "render_fig4", "render_fig5", "render_table4"
            ),
        }


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[rank]


#: Which layer each per-layer metric belongs to (for ``absent``).
LAYER_OF = {
    "microarch.sim_cycles": "microarch",
    "microarch.run_s": "microarch",
    "microarch.cycles_per_s": "microarch",
    "microarch.system_builds": "microarch.build",
    "microarch.build_s": "microarch.build",
    "microarch.restores": "microarch.snapshot",
    "microarch.restore_s": "microarch.snapshot",
    "microarch.digests": "microarch.digest",
    "microarch.digest_s": "microarch.digest",
    "injection.golden_s": "injection.campaign",
    "injection.classify_s": "injection.classify",
    "injection.journal_records": "injection.journal",
    "injection.journal_s": "injection.journal",
    "injection.adaptive.rounds": "injection.adaptive",
    "injection.adaptive.self_s": "injection.adaptive",
    "injection.learned.train_s": "injection.learned",
    "observability.taint_installs": "observability.taint",
    "observability.taint_s": "observability.taint",
    "observability.activity_s": "observability.golden",
    "analysis.render_s": "analysis",
}
for _name in ("dispatches", "block_runs", "compiled", "guard_failures", "refusals"):
    LAYER_OF[f"microarch.translate.{_name}"] = "microarch.translate"
for _name in ("faults", "fault_s", "fault_p50_ms", "fault_p98_ms", "ended.full",
              "ended.digest", "ended.dead_cell", "cycles_saved"):
    LAYER_OF[f"injection.{_name}"] = "injection.parallel"
LAYER_OF["observability.events"] = "injection.parallel"
for _name in ("warmup_s", "strikes", "strike_s", "platform_strikes"):
    LAYER_OF[f"beam.{_name}"] = "beam"
