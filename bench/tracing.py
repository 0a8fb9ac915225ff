"""Span tracing of robsurv's public functions, installed from outside the package.

`Tracer.install` replaces each traced public function (module attribute or
class attribute) with a wrapper that records a span around the call:
name, start, end and the index of the enclosing span.  Spans stay in memory
until the run ends.  Nothing inside ``src/`` is modified; `uninstall` puts
every original back.

Training steps are not a public call, so the tracer marks them itself: a
``trainer.step`` span opens when ``SurvivalModel.forward`` is entered directly
under ``trainer.train`` and closes when the following ``Adam.step`` returns.
It therefore covers forward, losses, ``zero_grad``, ``backward`` and the
optimizer update, but not the row slicing and ``reset_graph`` that precede
the forward call.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

STEP = "trainer.step"

# (module, attribute, span name); one name may cover several bindings of the
# same function because robsurv imports some functions by name
FUNCTION_TARGETS = (
    ("trainer", "train", "trainer.train"),
    ("trainer", "evaluate", "trainer.evaluate"),
    ("vq", "encode", "vq.encode"),
    ("vq", "quantize", "vq.quantize"),
    ("vq", "decode", "vq.decode"),
    ("vq", "vq_losses", "vq.losses"),
    ("fusion", "discrete_fusion", "fusion.discrete"),
    ("fusion", "continuous_attention", "fusion.continuous"),
    ("fusion", "fuse_final", "fusion.fuse_final"),
    ("fusion", "fusion_losses", "fusion.losses"),
    ("survival", "hazard_forward", "survival.hazard"),
    ("survival", "cif", "survival.cif"),
    ("survival", "likelihood_loss", "survival.likelihood"),
    ("survival", "ranking_loss", "survival.ranking"),
    ("autodiff", "backward", "autodiff.backward"),
    ("synthdata", "apply_noise_mix", "synthdata.noise_mix"),
    ("trainer", "apply_noise_mix", "synthdata.noise_mix"),
    ("synthdata", "generate_cohort", "synthdata.generate"),
    ("synthdata", "load_cohort", "synthdata.load_cohort"),
    ("cli", "load_cohort", "synthdata.load_cohort"),
    ("stats", "concordance", "stats.concordance"),
    ("stats", "km_curve", "stats.km"),
    ("stats", "logrank", "stats.logrank"),
    ("cli", "main", "cli.main"),
    ("cli", "atomic_text", "cli.write"),
)

METHOD_TARGETS = (
    ("SurvivalModel", "forward", "model.forward"),
    ("SurvivalModel", "losses", "model.losses"),
    ("SurvivalModel", "predict", "model.predict"),
    ("SurvivalModel", "save", "model.save"),
    ("Adam", "step", "optim.adam_step"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        now = time.perf_counter()
        # a call that raised can leave a synthetic step open below it
        while self._stack:
            top = self._stack.pop()
            self.spans[top].end = now
            if top == index:
                return

    def _top_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _wrap(self, fn, name: str, before=None, after=None):
        def traced(*args, **kwargs):
            if name == "model.forward" and self._top_name() == "trainer.train":
                self._open(STEP)
            index = self._open(name)
            if before is not None:
                self.spans[index].attrs = before(*args)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                self.spans[index].attrs = after(result, *args)
            if name == "optim.adam_step" and self._top_name() == STEP:
                self._close(self._stack[-1])
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------------

    def install(self, robsurv_modules: dict) -> None:
        """Wrap every traced function; ``robsurv_modules`` maps short name -> module."""
        ad = robsurv_modules["autodiff"]
        hooks = {
            "autodiff.backward": (lambda *a: {"tape_records": len(ad.active_graph())}, None),
            "survival.ranking": (None, lambda result, *a: {"pairs": int(result[1])}),
            "optim.adam_step": (
                lambda opt: {"param_arrays": len(opt.params),
                             "param_count": int(sum(p.data.size for p in opt.params))},
                None),
        }
        for module_name, attr, name in FUNCTION_TARGETS:
            module = robsurv_modules[module_name]
            self._patch(module, attr, name, hooks.get(name, (None, None)))
        classes = {
            "SurvivalModel": robsurv_modules["trainer"].SurvivalModel,
            "Adam": robsurv_modules["optim"].Adam,
        }
        for cls_name, attr, name in METHOD_TARGETS:
            self._patch(classes[cls_name], attr, name, hooks.get(name, (None, None)))
        # load is a classmethod: wrap the bound method, re-expose it as static
        model_cls = classes["SurvivalModel"]
        original = model_cls.__dict__["load"]
        self._restore.append((model_cls, "load", original))
        model_cls.load = staticmethod(self._wrap(model_cls.load, "model.load"))

    def _patch(self, owner, attr: str, name: str, hooks) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(getattr(owner, attr), name, *hooks))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def annotate(spans: list[Span], prefix: str) -> tuple[list[str], list[int]]:
    """Per span: the innermost enclosing span (itself included) whose name
    starts with ``prefix``, and the index of the enclosing step (-1: none)."""
    phase: list[str] = []
    step: list[int] = []
    for s in spans:
        inherited = phase[s.parent] if s.parent >= 0 else ""
        phase.append(s.name if s.name.startswith(prefix) else inherited)
        if s.parent < 0:
            step.append(-1)
        else:
            step.append(s.parent if spans[s.parent].name == STEP else step[s.parent])
    return phase, step


def step_table(spans: list[Span], own: list[float], step_of: list[int],
               steps: list[int]) -> dict:
    """Mean self time per step of every span name inside the given steps.

    The entry for ``trainer.step`` itself is the step time no traced child
    covers; by construction the entries sum to the mean step duration.
    """
    chosen = set(steps)
    totals: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if i in chosen:
            totals[STEP] += own[i]
        elif step_of[i] in chosen:
            totals[s.name] += own[i]
    n = max(len(steps), 1)
    return {name: 1e3 * total / n for name, total in sorted(totals.items())}
