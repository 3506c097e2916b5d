"""Spans around ppress's public functions, recorded from the benchmark's side.

``Tracer.install`` replaces each function listed in ``TRACED`` with a
wrapper at the attribute its callers look up, and ``uninstall`` puts the
originals back, so untraced rounds run the program untouched.  A span is
(name, start, end, parent index); spans stay in memory until the run ends.
A layer's self time is the time of its spans minus the time their child
spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

import ppress.campaign as campaign
import ppress.pareto as pareto
import ppress.reducers as reducers
import ppress.reducers.api as api
import ppress.synth as synth
from ppress.reducers import bitplane, huffman, lossless, predictive, sampling

_RAWCODES = 4  # predictive stream flag: symbols stored at a fixed width


def _count(key, amount):
    def hook(counts, args, out):
        counts[key] += amount(args, out)
    return hook


def _count_predictive_stream(counts, args, out):
    raw = out[0][0] & _RAWCODES
    counts["predictive.raw_streams" if raw else "predictive.huffman_streams"] += 1


def _count_eval(counts, args, out):
    counts["campaign.eval_calls"] += 1
    counts["campaign.cache_hits"] += out.cached
    counts.setdefault("round_record_ids", set()).add(out.record_id)


# (owner, attribute, span name, count hook).  Each function is wrapped where
# its callers look it up: the campaign binds compress/decompress/error_report/
# run_application by name, the codecs reach each other through their modules.
TRACED = (
    (api, "compress", "api.compress", _count("api.calls", lambda a, o: 1)),
    (api, "decompress", "api.decompress", _count("api.calls", lambda a, o: 1)),
    (reducers, "compress", "api.compress", _count("api.calls", lambda a, o: 1)),
    (reducers, "decompress", "api.decompress", _count("api.calls", lambda a, o: 1)),
    (campaign, "compress", "api.compress", _count("api.calls", lambda a, o: 1)),
    (campaign, "decompress", "api.decompress", _count("api.calls", lambda a, o: 1)),
    (api, "column_stats", "tabular.column_stats", None),
    (api, "global_stats", "tabular.column_stats", None),
    (predictive, "encode_abs", "predictive.encode", _count_predictive_stream),
    (predictive, "encode_pwrel", "predictive.encode", _count_predictive_stream),
    (predictive, "encode_verbatim", "predictive.encode", None),
    (predictive, "decode", "predictive.decode", None),
    (predictive, "quantize", "predictive.quantize",
     _count("predictive.literals", lambda a, o: int(o[2].size))),
    (predictive, "dequantize", "predictive.dequantize", None),
    (huffman.HuffmanTable, "from_symbols", "huffman.table_build",
     _count("huffman.table_bytes", lambda a, o: len(o.to_bytes()))),
    (huffman, "encode", "huffman.encode", _count("huffman.payload_bytes", lambda a, o: len(o[0]))),
    (huffman, "decode", "huffman.decode", _count("huffman.symbols_decoded", lambda a, o: int(o.size))),
    (bitplane, "encode", "bitplane.encode", _count("bitplane.stream_bytes", lambda a, o: len(o[0]))),
    (bitplane, "decode", "bitplane.decode", None),
    (lossless, "lossless_encode", "lossless.encode", _count("lossless.stream_bytes", lambda a, o: len(o))),
    (lossless, "lossless_decode", "lossless.decode", None),
    (reducers, "pack", "container.pack", _count("container.header_bytes", lambda a, o: a[0].header_bytes)),
    (reducers, "unpack", "container.unpack", None),
    (sampling, "sample_indices", "sampling.indices", None),
    (campaign, "run_application", "quality.app", _count("quality.app_runs", lambda a, o: 1)),
    (campaign, "error_report", "report.error_report", None),
    (campaign, "eval_config", "campaign.eval", _count_eval),
    (campaign, "run_campaign", "campaign.run", None),
    (campaign, "find_upper", "campaign.find_upper",
     _count("campaign.search_probes", lambda a, o: len(o.probes))),
    (campaign, "find_lower", "campaign.find_lower",
     _count("campaign.search_probes", lambda a, o: len(o.probes))),
    (campaign, "candidate_points", "campaign.ladder",
     _count("campaign.ladder_points", lambda a, o: len(o.points))),
    (campaign.RecordStore, "append", "store.append", None),
    (pareto, "pareto_front", "pareto.front", None),
    (pareto, "hypervolume2d", "pareto.hypervolume", None),
    (synth, "make_latent_tabular", "synth.generate", None),
    (synth, "make_cluster_labels", "synth.generate", None),
)

# layers whose spans have traced children; in every other layer the self
# time equals the inclusive times already reported
SELF_LAYERS = ("api", "predictive", "lossless", "campaign")

# per-layer metric -> the span whose inclusive time it reports
SPAN_TIMES = {
    "predictive.quantize_s": "predictive.quantize",
    "predictive.dequantize_s": "predictive.dequantize",
    "huffman.table_build_s": "huffman.table_build",
    "huffman.encode_s": "huffman.encode",
    "huffman.decode_s": "huffman.decode",
    "bitplane.encode_s": "bitplane.encode",
    "bitplane.decode_s": "bitplane.decode",
    "lossless.encode_s": "lossless.encode",
    "lossless.decode_s": "lossless.decode",
    "container.pack_s": "container.pack",
    "container.unpack_s": "container.unpack",
    "api.compress_s": "api.compress",
    "api.decompress_s": "api.decompress",
    "tabular.column_stats_s": "tabular.column_stats",
    "sampling.indices_s": "sampling.indices",
    "quality.app_s": "quality.app",
    "campaign.error_report_s": "report.error_report",
    "campaign.store_append_s": "store.append",
    "pareto.front_s": "pareto.front",
    "pareto.hypervolume_s": "pareto.hypervolume",
}
# per-layer metrics the count hooks above add up
COUNTED = (
    "predictive.literals", "predictive.raw_streams", "predictive.huffman_streams",
    "huffman.symbols_decoded", "huffman.table_bytes", "huffman.payload_bytes",
    "bitplane.stream_bytes", "lossless.stream_bytes", "container.header_bytes",
    "api.calls", "quality.app_runs", "campaign.eval_calls", "campaign.cache_hits",
    "campaign.search_probes", "campaign.ladder_points",
)
_BYTES = ("campaign.store_bytes", "campaign.cache_bytes")
# every per-layer metric: (unit, better)
PER_LAYER = {
    **{name: ("s", "lower") for name in SPAN_TIMES},
    **{f"{layer}.self_s": ("s", "lower") for layer in SELF_LAYERS},
    "synth.generate_s": ("s", "lower"),
    **{name: ("bytes" if name.endswith("_bytes") else "count", "lower") for name in COUNTED},
    **{name: ("bytes", "lower") for name in _BYTES},
    "campaign.distinct_evals": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "huffman.decode_Msym_per_s": ("Msym/s", "higher"),
    "campaign.useful_eval_share": ("%", "higher"),
    "trace.overhead_share": ("%", "lower"),
}


class Tracer:
    """Records spans and counts while installed; sums them per traced round."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()  # the current round's, from the hooks
        self.rounds: list[dict[str, float]] = []  # totals of each traced round
        self._first = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(counts, args, out)
            return out
        return traced

    def install(self) -> None:
        wrapped: dict[int, object] = {}  # one wrapper per function, however bound
        for owner, attr, name, hook in TRACED:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                fn = getattr(owner, attr)
                setattr(owner, attr, staticmethod(self._wrap(fn, name, hook)))
                continue
            if id(raw) not in wrapped:
                wrapped[id(raw)] = self._wrap(raw, name, hook)
            setattr(owner, attr, wrapped[id(raw)])

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    def start_round(self) -> None:
        self._first = len(self.spans)
        self.counts.clear()

    def end_round(self, scale: float) -> None:
        """Close a traced round: its totals, with times multiplied by `scale`."""
        spans = self.spans[self._first:]
        child_time: Counter = Counter()
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: Counter = Counter()
        own: Counter = Counter()
        for idx, (name, start, end, _) in enumerate(spans, self._first):
            inclusive[name] += end - start
            own[name.split(".")[0]] += end - start - child_time[idx]
        totals = {m: inclusive[span] * scale for m, span in SPAN_TIMES.items()}
        totals.update({f"{layer}.self_s": own[layer] * scale for layer in SELF_LAYERS})
        totals.update({m: self.counts[m] for m in COUNTED})
        totals["campaign.distinct_evals"] = len(self.counts.get("round_record_ids", ()))
        totals["trace.spans"] = len(spans)
        self.rounds.append(totals)

    def layer_metrics(self) -> dict[str, float]:
        """Mean per traced round of every total, plus two ratios of them."""
        out = {k: statistics.fmean(r[k] for r in self.rounds) for k in self.rounds[0]}
        decode_s = out["huffman.decode_s"]
        out["huffman.decode_Msym_per_s"] = (
            out["huffman.symbols_decoded"] / decode_s / 1e6 if decode_s > 0 else 0.0
        )
        calls = out["campaign.eval_calls"]
        out["campaign.useful_eval_share"] = (
            100.0 * out["campaign.distinct_evals"] / calls if calls else 0.0
        )
        return out

    def inclusive_s(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[0] == name)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": [s for s in self.spans if s is not None]}))
