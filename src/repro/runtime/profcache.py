"""Content-addressed cache for sampling and curve-fitting results.

Profiling is the wall-clock hot spot of :meth:`ActivePy.run`: four
sample runs execute every kernel for real, and the curve fitter solves
twenty least-squares problems per program.  The *outcome* of all that
work is a pure function of (program source, workload configuration,
machine configuration) — so it can be content-addressed and reused.

The cache key is a SHA-256 over a canonical fingerprint of

* the **program**: per-statement name/chunks/live_vars, the kernel's
  source (closure cells and defaults included, NumPy arrays hashed by
  content), and the cost callables — fingerprinted both by source and
  by *probing* them at sentinel record counts, because two closures
  from the same factory (``per_record(8.0)`` vs ``per_record(16.0)``)
  share their source but not their behaviour;
* the **dataset**: name, sizes, record bytes, and the builder's source;
* the **machine**: the full :class:`~repro.config.SystemConfig`;
* the **engine**: a digest over every ``repro`` source file, so *any*
  code change in this package invalidates every entry.  That is
  deliberately conservative — a stale entry must never be served, and
  extra misses only cost a re-profile.

Entries live under ``.repro_cache/profiles/<key>.json`` (override the
root with ``REPRO_CACHE_DIR``; disable entirely with
``REPRO_PROFCACHE=0``) with a checksum over the payload; a corrupted or
truncated file is ignored with a warning and recomputed, never served.
Writes are atomic (tempfile + ``os.replace``), so concurrent writers —
e.g. :mod:`repro.parallel` campaign workers — race benignly: the key is
content-addressed, every writer writes the same bytes.

A warm hit pays its serialisation once per distinct input per process:
a key's canonical JSON and SHA-256 run once per distinct fingerprint
tree (:func:`fingerprint_run`), and an entry is parsed and
checksum-verified once per distinct file content
(:meth:`ProfileCache._read`).  Both memos are bounded.

The cached :class:`~repro.runtime.sampling.SamplingReport` round-trips
floats through JSON ``repr`` exactly, so a cache hit is **bit-identical**
to a fresh profile: same ``sampling_seconds``, same fitted curves, same
downstream plan (asserted by ``tests/test_profcache.py`` on every
rotation workload).  Anything the fingerprinter cannot see through (a
kernel that is not a plain Python function, an unhashable closure cell)
makes the run *uncacheable* — a miss that is never stored.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import tempfile
import types
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..lang.dataset import Dataset
from ..lang.program import Program, Statement
from .fitting import ComplexityCurve, FittedCurve
from .sampling import LineFits, SampleSeries, SamplingPhase, SamplingReport

if TYPE_CHECKING:
    from ..obs import Observability
    from .plansearch import SearchReport

__all__ = [
    "FINGERPRINT_ATTR",
    "ProfileCache",
    "cached_sampling",
    "default_cache",
    "fingerprint_run",
]

#: Bumped whenever the payload layout or fingerprint recipe changes.
_SCHEMA_VERSION = 1

_ENV_CACHE_DIR = "REPRO_CACHE_DIR"
_ENV_DISABLE = "REPRO_PROFCACHE"
_DEFAULT_ROOT = ".repro_cache"

#: Sentinel record counts cost callables are probed at.  Probing is
#: what distinguishes closures that share source but capture different
#: constants; the spread of magnitudes also separates affine families.
_COST_PROBES = (1.0, 2.0, 17.0, 1024.0, 31337.0)

#: Recursion guard for closure-cell fingerprinting.
_MAX_DEPTH = 8

#: Entries each memo keeps: the process's keys per fingerprint tree,
#: and each :class:`ProfileCache`'s verified entries.
_MEMO_LIMIT = 64

#: A generated function whose closure holds values the fingerprinter
#: refuses (code objects, module globals) sets this attribute to a
#: fingerprintable description of what that closure computes; the
#: description then stands in for the closure cells.
FINGERPRINT_ATTR = "repro_fingerprint"


class _Unfingerprintable(Exception):
    """A value the fingerprinter refuses to guess about."""


def _repro_version() -> str:
    # Imported lazily: this module loads while ``repro/__init__`` is
    # still executing, before ``__version__`` is bound.
    from .. import __version__

    return __version__


# --- fingerprinting ---------------------------------------------------------

def _value_token(value: Any, depth: int = 0) -> Any:
    """A canonical JSON-able token for one captured value."""
    if depth > _MAX_DEPTH:
        raise _Unfingerprintable("value nesting too deep")
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return f"np:{value!r}"
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(
            np.ascontiguousarray(value).tobytes()
        ).hexdigest()[:16]
        return f"ndarray:{value.dtype}:{value.shape}:{digest}"
    if isinstance(value, enum.Enum):
        return f"enum:{type(value).__name__}:{value.value!r}"
    if isinstance(value, (tuple, list)):
        return [type(value).__name__] + [
            _value_token(item, depth + 1) for item in value
        ]
    if isinstance(value, dict):
        return {
            str(key): _value_token(item, depth + 1)
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, types.FunctionType):
        return _callable_token(value, depth + 1)
    raise _Unfingerprintable(
        f"cannot fingerprint a {type(value).__name__} value"
    )


def _callable_token(fn: Any, depth: int = 0) -> Dict[str, Any]:
    """Fingerprint a plain Python function: source, defaults, closure."""
    if not isinstance(fn, types.FunctionType):
        raise _Unfingerprintable(
            f"kernel/cost callable is a {type(fn).__name__}, "
            f"not a plain function"
        )
    token = {
        "module": fn.__module__,
        "module_digest": _module_digest(fn.__module__),
        "qualname": fn.__qualname__,
        "source": _source(fn),
        "defaults": [
            _value_token(value, depth + 1)
            for value in (fn.__defaults__ or ())
        ],
    }
    declared = getattr(fn, FINGERPRINT_ATTR, None)
    if declared is None:
        token["closure"] = [
            _value_token(cell.cell_contents, depth + 1)
            for cell in (fn.__closure__ or ())
        ]
    else:
        token["declared"] = _value_token(declared, depth + 1)
    return token


#: ``id(code) -> (code, source)``.  Keyed by identity, not equality:
#: code objects that differ only in a comment compare equal.  Holding
#: the code object keeps its id from being reused.
_SOURCES: Dict[int, Tuple[types.CodeType, str]] = {}


def _source(fn: types.FunctionType) -> str:
    """The source of ``fn``, read once per process per code object.

    Source files are fixed for the life of the process, the same
    lifetime :func:`_module_digest` and :func:`_engine_digest` assume.
    """
    code = fn.__code__
    entry = _SOURCES.get(id(code))
    if entry is not None:
        return entry[1]
    try:
        import inspect

        source = inspect.getsource(fn)
    except (OSError, TypeError):
        # Defined in a REPL or exec'd string: fall back to bytecode.
        source = code.co_code.hex() + "|" + repr(code.co_consts)
    _SOURCES[id(code)] = (code, source)
    return source


_MODULE_DIGESTS: Dict[str, str] = {}


def _module_digest(module_name: str) -> str:
    """Content digest of the module file a function is defined in.

    Covers edits to same-file helpers the function calls but does not
    close over.  Modules without a source file (builtins, frozen)
    digest to a constant.
    """
    cached = _MODULE_DIGESTS.get(module_name)
    if cached is not None:
        return cached
    import sys

    module = sys.modules.get(module_name)
    path = getattr(module, "__file__", None)
    if path is None:
        digest = "no-source"
    else:
        try:
            digest = hashlib.sha256(
                Path(path).read_bytes()
            ).hexdigest()[:16]
        except OSError:
            digest = "unreadable"
    _MODULE_DIGESTS[module_name] = digest
    return digest


_ENGINE_DIGEST: Optional[str] = None


def _engine_digest() -> str:
    """One digest over every source file of the ``repro`` package.

    Any code change anywhere in the package invalidates the whole
    cache.  Computed once per process (~a millisecond for ~100 files).
    """
    global _ENGINE_DIGEST
    if _ENGINE_DIGEST is None:
        package_root = Path(__file__).resolve().parents[1]
        hasher = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            hasher.update(str(path.relative_to(package_root)).encode("utf-8"))
            try:
                hasher.update(path.read_bytes())
            except OSError:
                hasher.update(b"unreadable")
        _ENGINE_DIGEST = hasher.hexdigest()[:16]
    return _ENGINE_DIGEST


def _cost_token(fn: Any, depth: int = 0) -> Dict[str, Any]:
    """Source fingerprint plus behavioural probes of one cost callable."""
    token = _callable_token(fn, depth)
    try:
        token["probes"] = [repr(float(fn(n))) for n in _COST_PROBES]
    except Exception as exc:
        raise _Unfingerprintable(f"cost callable failed a probe: {exc}")
    return token


def _statement_token(statement: Statement) -> Dict[str, Any]:
    return {
        "name": statement.name,
        "chunks": statement.chunks,
        "live_vars": list(statement.live_vars),
        "kernel": _callable_token(statement.kernel),
        "instructions": _cost_token(statement.instructions),
        "output_bytes": _cost_token(statement.output_bytes),
        "storage_bytes": _cost_token(statement.storage_bytes),
    }


#: ``(program name, dataset name, *config token) -> (tree, key)``: the
#: last fingerprint tree seen per handle and its key.
_KEYS: Dict[Tuple[Any, ...], Tuple[Dict[str, Any], str]] = {}


def _plain_leaves(program: Program, dataset: Dataset) -> bool:
    """Whether every value the tree holds un-``repr``-ed is a ``str`` or ``int``.

    ``==`` equates ``1``, ``1.0``, ``True`` and ``np.int64(1)``, which
    JSON spells differently or refuses, so only a tree whose raw leaves
    are exactly ``str`` or ``int`` may be served a memoized key.
    """
    leaves = [program.name, dataset.name, dataset.n_records, dataset.full_records]
    for statement in program:
        leaves += (statement.name, statement.chunks, *statement.live_vars)
    return all(type(leaf) is str or type(leaf) is int for leaf in leaves)


def _fingerprint_tree(
    program: Program, dataset: Dataset, config: SystemConfig
) -> Dict[str, Any]:
    """The token tree a run's key hashes; raises when it cannot be built."""
    import dataclasses

    return {
        "schema": _SCHEMA_VERSION,
        "repro_version": _repro_version(),
        "engine": _engine_digest(),
        "program": {
            "name": program.name,
            "statements": [_statement_token(s) for s in program],
        },
        "dataset": {
            "name": dataset.name,
            "n_records": dataset.n_records,
            "record_bytes": repr(dataset.record_bytes),
            "full_records": dataset.full_records,
            "builder": _callable_token(dataset.builder),
        },
        "config": {
            field.name: repr(getattr(config, field.name))
            for field in dataclasses.fields(config)
        },
    }


def fingerprint_run(
    program: Program, dataset: Dataset, config: SystemConfig
) -> Optional[str]:
    """The cache key of one (program, dataset, config) run, or ``None``.

    ``None`` means *uncacheable*: some ingredient (an exotic kernel
    object, an opaque closure cell) cannot be fingerprinted reliably,
    so the run must always profile fresh.

    The token tree is built on every call, so cost probes, closure
    cells and defaults are always read live.  Its canonical JSON and
    SHA-256 run once per distinct tree: a tree ``==`` the memoized one
    for its handle gets the memoized key.
    """
    try:
        tree = _fingerprint_tree(program, dataset, config)
    except (_Unfingerprintable, TypeError, ValueError):
        return None
    handle = None
    if _plain_leaves(program, dataset):
        handle = (program.name, dataset.name, *tree["config"].values())
        memo = _KEYS.get(handle)
        if memo is not None and memo[0] == tree:
            return memo[1]
    try:
        canonical = json.dumps(tree, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError):
        return None
    key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    if handle is not None:
        _remember(_KEYS, handle, (tree, key))
    return key


def _remember(memo: Dict[Any, Any], handle: Any, value: Any) -> None:
    """Store ``value`` under ``handle``, evicting the oldest past the limit."""
    memo.pop(handle, None)
    if len(memo) >= _MEMO_LIMIT:
        del memo[next(iter(memo))]
    memo[handle] = value


# --- SamplingReport (de)serialisation --------------------------------------

def _report_to_jsonable(report: SamplingReport) -> Dict[str, Any]:
    return {
        "sampling_seconds": report.sampling_seconds,
        "factors": list(report.factors),
        "series": [
            {
                "index": s.index,
                "name": s.name,
                "n_values": list(s.n_values),
                "compute_seconds": list(s.compute_seconds),
                "data_access_seconds": list(s.data_access_seconds),
                "input_bytes": list(s.input_bytes),
                "output_bytes": list(s.output_bytes),
                "storage_bytes": list(s.storage_bytes),
            }
            for s in report.series
        ],
        "fits": [
            {
                "index": f.index,
                "name": f.name,
                **{
                    metric: _curve_to_jsonable(getattr(f, metric))
                    for metric in (
                        "compute", "data_access", "output_bytes",
                        "storage_bytes",
                    )
                },
            }
            for f in report.fits
        ],
    }


def _curve_to_jsonable(curve: FittedCurve) -> Dict[str, Any]:
    return {
        "curve": curve.curve.value,
        "coefficient": curve.coefficient,
        "intercept": curve.intercept,
        "relative_residual": curve.relative_residual,
    }


def _curve_from_jsonable(payload: Dict[str, Any]) -> FittedCurve:
    return FittedCurve(
        curve=ComplexityCurve(payload["curve"]),
        coefficient=float(payload["coefficient"]),
        intercept=float(payload["intercept"]),
        relative_residual=float(payload["relative_residual"]),
    )


def _report_from_jsonable(payload: Dict[str, Any]) -> SamplingReport:
    series = [
        SampleSeries(
            index=int(s["index"]),
            name=str(s["name"]),
            n_values=[int(n) for n in s["n_values"]],
            compute_seconds=[float(v) for v in s["compute_seconds"]],
            data_access_seconds=[float(v) for v in s["data_access_seconds"]],
            input_bytes=[float(v) for v in s["input_bytes"]],
            output_bytes=[float(v) for v in s["output_bytes"]],
            storage_bytes=[float(v) for v in s["storage_bytes"]],
        )
        for s in payload["series"]
    ]
    fits = [
        LineFits(
            index=int(f["index"]),
            name=str(f["name"]),
            compute=_curve_from_jsonable(f["compute"]),
            data_access=_curve_from_jsonable(f["data_access"]),
            output_bytes=_curve_from_jsonable(f["output_bytes"]),
            storage_bytes=_curve_from_jsonable(f["storage_bytes"]),
        )
        for f in payload["fits"]
    ]
    return SamplingReport(
        series=series,
        fits=fits,
        sampling_seconds=float(payload["sampling_seconds"]),
        factors=tuple(payload["factors"]),
    )


def _checksum(payload: Dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --- the cache --------------------------------------------------------------

class ProfileCache:
    """A directory of content-addressed sampling reports.

    Parameters
    ----------
    root:
        Cache directory; defaults to ``$REPRO_CACHE_DIR`` or
        ``.repro_cache`` under the current working directory.

    Counters (``hits``/``misses``/``invalidations``/``uncacheable``)
    accumulate per instance; :class:`~repro.runtime.activepy.ActivePy`
    republishes their deltas through ``repro.obs``.

    Each entry is parsed and checksum-verified once per instance per
    distinct file content: a read whose bytes equal the last verified
    bytes of that path decodes the remembered payload.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        if root is None:
            root = Path(os.environ.get(_ENV_CACHE_DIR, _DEFAULT_ROOT))
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.uncacheable = 0
        self.plan_hits = 0
        self.plan_misses = 0
        #: ``path -> (key, file bytes, payload)`` of verified entries.
        self._verified: Dict[Path, Tuple[str, bytes, Dict[str, Any]]] = {}

    # --- key --------------------------------------------------------------

    def key_for(
        self, program: Program, dataset: Dataset, config: SystemConfig
    ) -> Optional[str]:
        """Fingerprint a run; ``None`` marks it uncacheable."""
        key = fingerprint_run(program, dataset, config)
        if key is None:
            self.uncacheable += 1
        return key

    def _path(self, key: str) -> Path:
        return self.root / "profiles" / f"{key}.json"

    def _plan_path(self, key: str) -> Path:
        return self.root / "plans" / f"{key}.json"

    # --- read -------------------------------------------------------------

    def get(self, key: str) -> Optional[SamplingReport]:
        """The cached report for ``key``, or ``None`` on a miss.

        A present-but-unusable entry (corrupted JSON, checksum or
        schema mismatch) is a *miss plus invalidation*: the entry is
        dropped with a warning and the caller re-profiles.
        """
        report = self._read(self._path(key), key, _report_from_jsonable)
        self.hits += report is not None
        self.misses += report is None
        return report

    def get_plan(self, key: str) -> Optional["SearchReport"]:
        """The cached :class:`~repro.runtime.plansearch.SearchReport`, or ``None``.

        ``key`` is the run's sampling fingerprint, so anything that
        invalidates a profile invalidates its plan.  Plan entries share
        the profile entries' envelope and damage policy; one that does
        not decode to a report is damage too.
        """
        from .plansearch import SearchReport

        report = self._read(self._plan_path(key), key, SearchReport.from_jsonable)
        self.plan_hits += report is not None
        self.plan_misses += report is None
        return report

    def _read(self, path: Path, key: str, decode: Callable[[Dict[str, Any]], Any]):
        """The decoded payload of the entry at ``path``, or ``None``.

        The envelope must carry this schema, ``key`` and the payload's
        checksum, and the payload must decode.  Anything unusable
        (unreadable, corrupted, copied, truncated, edited) is dropped
        with a warning and counted as an invalidation, never served.
        The file is read on every call; bytes equal to the ones last
        verified for ``path`` skip the parse and the checksum, and
        ``decode`` still builds fresh objects from the kept payload.
        """
        try:
            data = path.read_bytes()
            verified = self._verified.get(path)
            if verified is not None and verified[0] == key and verified[1] == data:
                return decode(verified[2])
            envelope = json.loads(data.decode("utf-8"))
            if envelope.get("schema_version") != _SCHEMA_VERSION:
                raise ValueError(
                    f"schema {envelope.get('schema_version')!r} != "
                    f"{_SCHEMA_VERSION}"
                )
            if envelope.get("key") != key:
                raise ValueError("key mismatch (renamed or copied entry)")
            payload = envelope["payload"]
            if envelope.get("checksum") != _checksum(payload):
                raise ValueError("checksum mismatch (truncated or edited)")
            value = decode(payload)
            _remember(self._verified, path, (key, data, payload))
            return value
        except FileNotFoundError:
            return None
        except Exception as exc:  # noqa: BLE001 — any damage means recompute
            warnings.warn(
                f"repro profile cache: ignoring corrupted entry "
                f"{path.name}: {exc}",
                RuntimeWarning,
                stacklevel=3,
            )
            self.invalidations += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None

    # --- write ------------------------------------------------------------

    def put(self, key: str, report: SamplingReport) -> bool:
        """Persist ``report`` under ``key``; best-effort, atomic.

        Returns False (without raising) when the report cannot be
        serialised or the filesystem refuses the write — caching is an
        optimisation, never a failure mode.
        """
        return self._write(self._path(key), key, _report_to_jsonable, report)

    def put_plan(self, key: str, report: "SearchReport") -> bool:
        """Persist a plan-search report under ``key``; atomic, best-effort."""
        from .plansearch import SearchReport

        return self._write(self._plan_path(key), key, SearchReport.to_jsonable, report)

    def _write(
        self, path: Path, key: str, encode: Callable[[Any], Dict[str, Any]],
        value: Any,
    ) -> bool:
        """Write ``encode(value)`` in the envelope :meth:`_read` checks.

        The payload is serialised once: its canonical JSON is both the
        checksum's input and, spliced in, the envelope's ``payload``
        field, byte for byte what ``json.dumps`` of the whole envelope
        with sorted keys writes.
        """
        try:
            canonical = json.dumps(encode(value), sort_keys=True, allow_nan=False)
            checksum = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            text = (
                f'{{"checksum": "{checksum}", "key": {json.dumps(key)}, '
                f'"payload": {canonical}, '
                f'"repro_version": {json.dumps(_repro_version())}, '
                f'"schema_version": {json.dumps(_SCHEMA_VERSION)}}}'
            )
        except (TypeError, ValueError):
            return False
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=f".{key[:16]}.", suffix=".tmp", dir=path.parent
            )
            try:
                try:
                    data = memoryview(text.encode("utf-8"))
                    while data:
                        data = data[os.write(fd, data):]
                finally:
                    os.close(fd)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    # --- maintenance ------------------------------------------------------

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        self._verified.clear()
        removed = 0
        for subdir in ("profiles", "plans"):
            directory = self.root / subdir
            if directory.is_dir():
                for path in directory.glob("*.json"):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "uncacheable": self.uncacheable,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
        }

    def __repr__(self) -> str:
        return f"ProfileCache(root={str(self.root)!r}, {self.stats()})"


_DEFAULT_CACHE: Optional[ProfileCache] = None
_DEFAULT_CACHE_KEY: Optional[str] = None


def default_cache() -> Optional[ProfileCache]:
    """The process-wide cache, or ``None`` when disabled by environment.

    ``REPRO_PROFCACHE=0`` (or ``off``/``false``/``no``) disables
    caching entirely; ``REPRO_CACHE_DIR`` relocates it.  The singleton
    is rebuilt if either variable changes mid-process (tests do this).
    """
    global _DEFAULT_CACHE, _DEFAULT_CACHE_KEY
    toggle = os.environ.get(_ENV_DISABLE, "1").strip().lower()
    if toggle in ("0", "off", "false", "no"):
        return None
    root = os.environ.get(_ENV_CACHE_DIR, _DEFAULT_ROOT)
    if _DEFAULT_CACHE is None or _DEFAULT_CACHE_KEY != root:
        _DEFAULT_CACHE = ProfileCache(Path(root))
        _DEFAULT_CACHE_KEY = root
    return _DEFAULT_CACHE


def cached_sampling(
    sampler: SamplingPhase,
    program: Program,
    dataset: Dataset,
    cache: Optional[ProfileCache],
    obs: Optional["Observability"] = None,
) -> Tuple[SamplingReport, Optional[str], str]:
    """The sampling phase of one run, served from ``cache`` when it can be.

    Every caller that profiles a program goes through here, so each
    (program, dataset, config) is sampled once per cache.  Returns
    ``(report, key, status)``: the report is bit-identical hit or miss;
    ``key`` is the run's fingerprint (``None`` when uncached), which
    also keys the run's plan-cache entry; ``status`` is "hit",
    "miss", "uncacheable" (unfingerprintable program) or "off".
    Noisy profiles are meant to differ run to run, so a config with
    ``profiler_noise > 0`` bypasses the cache.  An enabled ``obs``
    handle counts ``profcache.<status>`` and ``profcache.invalidation``.
    """
    if sampler.config.profiler_noise > 0:
        cache = None
    report: Optional[SamplingReport] = None
    key: Optional[str] = None
    status = "off"
    if cache is not None:
        invalidations_before = cache.invalidations
        key = cache.key_for(program, dataset, sampler.config)
        if key is None:
            status = "uncacheable"
        else:
            report = cache.get(key)
            status = "hit" if report is not None else "miss"
        if obs is not None and obs.enabled:
            obs.count(f"profcache.{status}")
            stale = cache.invalidations - invalidations_before
            if stale:
                obs.count("profcache.invalidation", stale)
    if report is None:
        report = sampler.run(program, dataset)
        if key is not None:
            cache.put(key, report)
    return report, key, status
