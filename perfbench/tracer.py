"""Per-layer spans and work counts, installed from outside the package.

Each layer is one module of ``involution_harmonics`` (the oracle module is
split in two).  Its public entry functions are wrapped by rebinding the name
in every package module namespace that holds the function, because
``from .partitions import even_inner_stripes`` copies the reference into
``stripes``, ``frobenius`` and ``cli``; patching the defining module alone
would miss those calls.

A span is recorded only where a call crosses into a different layer, so a
function calling another of its own layer, or itself recursively
(``partitions_of``, ``murnaghan_nakayama``), adds no span.  A layer's self time
is the time inside its spans minus the time inside the spans they caused.
Generators (``horizontal_strips_over``, ``stripe_inners``) and per-element
helpers (``is_horizontal_stripe``, ``conjugate``, ``stripe_steps``, the
``qp_*`` arithmetic, ``row_insert``) are not wrapped: they run millions of
times a run, so their time counts toward the layer that called them.

Caveat: ``oracle._evaluation_space`` is a private cache.  A rank build done
cold inside ``graded_character`` counts as ``oracle.character`` time, and one
done inside ``graded_hilbert`` or ``verify_monomial_basis`` as
``oracle.rank`` time; only ``matchings_of_size`` is always ``oracle.rank``.
``verify_monomial_basis`` belongs to ``oracle.rank`` because its own work is
the elimination of the candidate columns.
"""

from __future__ import annotations

import sys
import time

from jobs import WIDTH_VERDICT, partition_count

# layer -> "module.function" names of its entry functions.
LAYERS = {
    "cli": ("cli.main",),
    "checks": ("checks.check_formulas", "checks.check_bijections", "checks.check_width"),
    "frobenius": (
        "frobenius.graded_frobenius_signed",
        "frobenius.graded_frobenius_positive",
        "frobenius.graded_frobenius_width",
        "frobenius.signed_term",
        "frobenius.frobenius_total",
        "frobenius.hilbert_series",
    ),
    "schur": (
        "schur.pieri_mult",
        "schur.plethysm_h_h2",
        "schur.truncate_first_part",
        "schur.schur_add",
        "schur.schur_sub",
        "schur.schur_shift",
        "schur.schur_at_one",
        "schur.schur_terms",
    ),
    "partitions": (
        "partitions.partitions_of",
        "partitions.even_partitions_of",
        "partitions.even_inner_stripes",
        "partitions.syt_count",
    ),
    "stripes": (
        "stripes.width",
        "stripes.matched_pairs",
        "stripes.width_by_matching",
        "stripes.width_by_prefix_sums",
        "stripes.stripe_from_columns",
        "stripes.stripe_family",
        "stripes.nonnegative_family",
        "stripes.width_family",
    ),
    "bijections": (
        "bijections.detach_domino",
        "bijections.attach_domino",
        "bijections.to_width_stripe",
        "bijections.to_nonnegative_stripe",
    ),
    "involutions": ("involutions.involutions", "involutions.count_involutions"),
    "tableaux": (
        "tableaux.candidate_basis",
        "tableaux.candidate_monomial",
        "tableaux.involution_tableau_pair",
        "tableaux.rsk_symmetric",
        "tableaux.rsk_symmetric_inverse",
        "tableaux.standard_tableaux",
    ),
    "oracle.rank": (
        "oracle.graded_hilbert",
        "oracle.matchings_of_size",
        "oracle.verify_monomial_basis",
    ),
    "oracle.character": (
        "oracle.oracle_graded_frobenius",
        "oracle.graded_character",
        "oracle.frobenius_of_character",
        "oracle.murnaghan_nakayama",
    ),
}

PACKAGE = "involution_harmonics"


class Tracer:
    """Wraps the layer entry functions while installed; restores them on uninstall."""

    def __init__(self) -> None:
        self.job = -1
        self.functions: list[str] = []  # span function index -> "layer:module.name"
        self.spans: list[tuple] = []  # (job, parent span, function, start, end)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [layer, child seconds, span id]
        self._patched: list[tuple[object, str, object]] = []  # (module, name, original)
        self._originals: dict[str, object] = {}
        self._tallies = dict.fromkeys(
            ("tested", "stripes", "copied", "points", "columns", "rsk", "candidates",
             "maps", "checked"),
            0,
        )
        self._ranks: dict[tuple[int, int], int] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        hooks = self._hooks()
        wrappers: dict[int, object] = {}
        for layer, names in LAYERS.items():
            for qualified in names:
                module_name, attr = qualified.split(".", 1)
                fn = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), attr, None)
                if fn is None:
                    self.missing.append(qualified)
                    continue
                self._originals[qualified] = fn
                self.functions.append(f"{layer}:{qualified}")
                wrappers[id(fn)] = self._wrap(
                    fn, len(self.functions) - 1, layer, hooks.get(qualified)
                )
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)

    def restored(self) -> bool:
        """True when every name install() rebound holds its original object again."""
        return all(getattr(module, attr) is fn for module, attr, fn in self._patched)

    def absent_layers(self) -> list[str]:
        return [
            layer for layer, names in LAYERS.items()
            if all(name in self.missing for name in names)
        ]

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, index: int, layer: str, hook):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        clock = time.perf_counter
        tracer = self
        active = False

        def wrapper(*args, **kwargs):
            nonlocal active
            if active:  # a recursive self-call: no span, no count
                return fn(*args, **kwargs)
            active = True
            try:
                if stack and stack[-1][0] == layer:
                    result = fn(*args, **kwargs)
                else:
                    frame = [layer, 0.0, len(spans)]
                    parent = stack[-1][2] if stack else -1
                    spans.append(None)
                    stack.append(frame)
                    start = clock()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        end = clock()
                        stack.pop()
                        elapsed = end - start
                        self_s[layer] += elapsed - frame[1]
                        calls[layer] += 1
                        if stack:
                            stack[-1][1] += elapsed
                        spans[frame[2]] = (tracer.job, parent, index, start, end)
            finally:
                active = False
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- work counts ---------------------------------------------------------

    def _hooks(self) -> dict:
        t = self._tallies

        def stripes(args, kwargs, result):
            inner_size = args[1] if len(args) > 1 else kwargs["inner_size"]
            if inner_size >= 0 and inner_size % 2 == 0:
                t["tested"] += partition_count(inner_size // 2)
            t["stripes"] += len(result)

        def copied(args, kwargs, result):
            t["copied"] += len(args[0] if args else kwargs["f"])

        def one(result):
            return 1

        def tally(name, size=len):
            def hook(args, kwargs, result):
                t[name] += size(result)
            return hook

        def locus(args, kwargs):
            return int(args[0]), int(args[1])

        def hilbert_rank(args, kwargs, result):
            self._ranks[locus(args, kwargs)] = sum(result)

        def character_rank(args, kwargs, result):
            n, a = locus(args, kwargs)
            identity = (1,) * n
            self._ranks[(n, a)] = sum(piece[identity] for piece in result)

        def verdicts(result):
            return len(result[1])

        def width_verdict(result):
            match = WIDTH_VERDICT.fullmatch(result[1][0]) if result[1] else None
            return int(match.group(1)) if match else 0

        return {
            "partitions.even_inner_stripes": stripes,
            "schur.schur_add": copied,
            "schur.schur_sub": copied,
            "involutions.involutions": tally("points"),
            "oracle.matchings_of_size": tally("columns"),
            "oracle.graded_hilbert": hilbert_rank,
            "oracle.graded_character": character_rank,
            "tableaux.rsk_symmetric": tally("rsk", one),
            "tableaux.rsk_symmetric_inverse": tally("rsk", one),
            "tableaux.candidate_basis": tally("candidates"),
            "bijections.detach_domino": tally("maps", one),
            "bijections.attach_domino": tally("maps", one),
            "bijections.to_width_stripe": tally("maps", one),
            "bijections.to_nonnegative_stripe": tally("maps", one),
            "checks.check_formulas": tally("checked", verdicts),
            "checks.check_bijections": tally("checked", verdicts),
            "checks.check_width": tally("checked", width_verdict),
        }

    def counters(self) -> dict[str, float]:
        """Work counts of the pass, from return values and ``cache_info()``.

        ``stripe_yield`` is stripes returned by ``even_inner_stripes`` over the
        even partitions it had to test; ``pivot_yield`` is the final rank of
        each (n, a) whose rank the oracle computed, over the matchings
        enumerated; ``checks.points`` is the (n, a) verdicts of the formula and
        bijection sweeps plus the stripes the width sweep reports.  All are
        sums over the pass, so they do not depend on the job order.
        """
        t = self._tallies
        info = getattr(self._originals.get("partitions.partitions_of"), "cache_info", None)
        hits = misses = 0
        if info is not None:
            stats = info()
            hits, misses = stats.hits, stats.misses
        ranks = sum(self._ranks.values())
        return {
            "partitions.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "partitions.stripe_yield": t["stripes"] / t["tested"] if t["tested"] else 0.0,
            "schur.terms_copied": t["copied"],
            "involutions.points": t["points"],
            "oracle.rank.columns": t["columns"],
            "oracle.rank.pivot_yield": ranks / t["columns"] if t["columns"] else 0.0,
            "tableaux.rsk_calls": t["rsk"],
            "tableaux.candidates": t["candidates"],
            "bijections.maps": t["maps"],
            "checks.points": t["checked"],
        }
