"""Self-healing disk cache for the expensive pipeline artefacts.

Measuring 72 benchmarks at 8 unroll factors in two scheduling regimes takes
minutes; the benches and examples want it instant.  Artefacts are keyed by a
hash of everything that determines them (suite seed and scale, labelling
config, machine description, schema version), so a stale cache can never be
confused for a current one.

The store is built to survive a hostile filesystem:

* **Atomic writes** — tables are written to a temp file and moved into
  place with ``os.replace``; readers never see a half-written entry.
* **Corruption is a miss** — a bad zip, truncated file, or missing array
  raises :class:`~repro.pipeline.measurements.CorruptTableError`, the entry
  is quarantined (renamed ``*.corrupt``) with a logged warning, and the
  table is re-measured and re-written.  Nothing downstream ever sees
  ``zipfile.BadZipFile``.
* **Schema versioning** — :data:`SCHEMA_VERSION` participates in the key
  hash, so a format change simply stops matching old entries instead of
  misreading them.
* **Operable** — ``repro-unroll cache stats|gc|clear`` inspects and prunes
  the store; ``REPRO_CACHE_DIR`` relocates it (tests point it at a tmp
  dir so runs never share state).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import time
from pathlib import Path

from repro.instrument.report import MeasurementRollup
from repro.ir.program import Suite
from repro.machine.model import MachineModel
from repro.ml.dataset import LoopDataset
from repro.pipeline.labeling import LabelingConfig, measure_suite
from repro.pipeline.measurements import CorruptTableError, MeasurementTable
from repro.resilience.faults import get_injector
from repro.workloads.generator import WORKLOADS_VERSION, generate_suite

logger = logging.getLogger(__name__)

#: Default caps on quarantined (``*.corrupt``) files.  Quarantined entries
#: are evidence for debugging, not data — keep the most recent few and age
#: the rest out, opportunistically on every write, so a store that keeps
#: hitting corruption cannot fill the disk with tombstones.
QUARANTINE_CAP = 16
QUARANTINE_MAX_AGE_S = 7 * 24 * 3600.0

#: Version of the on-disk measurement-table schema.  Mixed into every cache
#: key, so bumping it orphans (never misreads) existing entries.
#: v5: batched noise-stream contract (one block draw per work unit) changed
#: measured medians relative to the per-loop scalar draws of v4.
SCHEMA_VERSION = 5

#: Default cache directory (repository-local, ignored by packaging).
DEFAULT_CACHE_DIR = Path(__file__).resolve().parents[3] / ".cache"


def default_cache_dir() -> Path:
    """The active cache root: ``REPRO_CACHE_DIR`` if set, else the
    repository-local ``.cache/``."""
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return Path(env) if env else DEFAULT_CACHE_DIR


def _machine_fingerprint(machine: MachineModel) -> dict:
    payload = {
        field.name: getattr(machine, field.name)
        for field in dataclasses.fields(machine)
        if field.name not in ("fu_counts", "latencies", "icache", "dcache")
    }
    payload["fu_counts"] = {k.value: v for k, v in machine.fu_counts.items()}
    payload["latencies"] = {k.value: v for k, v in machine.latencies.items()}
    payload["icache"] = dataclasses.asdict(machine.icache)
    payload["dcache"] = dataclasses.asdict(machine.dcache)
    return payload


def config_key(suite_seed: int, loops_scale: float, config: LabelingConfig) -> str:
    """Stable hash of everything that determines a measurement table."""
    payload = {
        "suite_seed": suite_seed,
        "loops_scale": loops_scale,
        "seed": config.seed,
        "swp": config.swp,
        "n_runs": config.n_runs,
        "noise": dataclasses.asdict(config.noise),
        # The cost-model engine is left out: incremental and reference
        # produce bit-identical tables.
        "machine": _machine_fingerprint(config.machine),
        "workloads_version": WORKLOADS_VERSION,
        "schema": SCHEMA_VERSION,
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """A snapshot of the store's contents."""

    directory: Path
    n_entries: int
    n_quarantined: int
    n_stale_tmp: int
    total_bytes: int
    quarantine_cap: int = QUARANTINE_CAP

    def summary(self) -> str:
        return (
            f"{self.directory}: {self.n_entries} entries "
            f"({self.total_bytes / 1024:.0f} KiB), "
            f"{self.n_quarantined} quarantined (cap {self.quarantine_cap}), "
            f"{self.n_stale_tmp} stale temp file(s)"
        )


class CacheStore:
    """The self-healing measurement-table store.

    All mutation goes through atomic renames, so concurrent writers (the
    parallel pipeline, two CLI invocations) can race without ever leaving a
    torn entry: last writer wins, and both wrote identical bytes anyway
    because the key pins every input.
    """

    PREFIX = "measurements_"
    QUARANTINE_SUFFIX = ".corrupt"

    def __init__(
        self,
        root: str | Path | None = None,
        quarantine_cap: int = QUARANTINE_CAP,
        quarantine_max_age_s: float = QUARANTINE_MAX_AGE_S,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.quarantine_cap = quarantine_cap
        self.quarantine_max_age_s = quarantine_max_age_s

    def path_for(self, key: str) -> Path:
        return self.root / f"{self.PREFIX}{key}.npz"

    def entries(self) -> list[Path]:
        return sorted(self.root.glob(f"{self.PREFIX}*.npz"))

    def quarantined(self) -> list[Path]:
        return sorted(self.root.glob(f"*{self.QUARANTINE_SUFFIX}"))

    def stale_tmp(self) -> list[Path]:
        return sorted(self.root.glob(".*.tmp"))

    # ------------------------------------------------------------------

    def load(self, key: str) -> MeasurementTable | None:
        """The cached table for ``key``, or ``None`` on a miss.

        A corrupt entry is quarantined and reported as a miss — the caller
        re-measures and the store heals on the subsequent write.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        injector = get_injector()
        if injector.active:
            injector.corrupt_file("cache.corrupt", key, path)
        try:
            return MeasurementTable.load(path)
        except FileNotFoundError:
            return None  # lost a race with clear()/gc(); just re-measure
        except CorruptTableError as error:
            self.quarantine(path, error)
            return None

    def store(self, key: str, table: MeasurementTable) -> Path:
        path = self.path_for(key)
        table.save(path)  # atomic: temp file + os.replace
        # Writes are the store's natural housekeeping moment: apply the
        # quarantine caps opportunistically so tombstones never accumulate
        # past the cap even if nobody ever runs ``cache gc``.
        self.prune_quarantined()
        return path

    def quarantine(self, path: Path, error: Exception) -> Path | None:
        """Move a corrupt entry aside so it can never be re-read as live."""
        target = path.with_name(path.name + self.QUARANTINE_SUFFIX)
        try:
            os.replace(path, target)
        except FileNotFoundError:
            return None  # another process already moved or removed it
        logger.warning("quarantined corrupt cache entry %s: %s", path.name, error)
        return target

    def prune_quarantined(self, now: float | None = None) -> list[Path]:
        """Apply the quarantine age and count caps; returns what was removed.

        Oldest-first by mtime: everything past ``quarantine_max_age_s`` goes,
        then the oldest survivors until at most ``quarantine_cap`` remain.
        A file another process removes mid-prune is simply skipped.
        """
        stamped: list[tuple[float, Path]] = []
        for path in self.quarantined():
            try:
                stamped.append((path.stat().st_mtime, path))
            except FileNotFoundError:
                pass
        stamped.sort()
        now = time.time() if now is None else now
        removed: list[Path] = []
        keep: list[Path] = []
        for mtime, path in stamped:
            if now - mtime > self.quarantine_max_age_s:
                removed.append(path)
            else:
                keep.append(path)
        overflow = len(keep) - self.quarantine_cap
        if overflow > 0:
            removed.extend(keep[:overflow])
        for path in removed:
            path.unlink(missing_ok=True)
        if removed:
            logger.info(
                "pruned %d quarantined cache file(s) past the age/count caps",
                len(removed),
            )
        return removed

    # ------------------------------------------------------------------

    def stats(self) -> CacheStats:
        entries = self.entries()
        return CacheStats(
            directory=self.root,
            n_entries=len(entries),
            n_quarantined=len(self.quarantined()),
            n_stale_tmp=len(self.stale_tmp()),
            total_bytes=sum(p.stat().st_size for p in entries if p.exists()),
            quarantine_cap=self.quarantine_cap,
        )

    def gc(self) -> list[Path]:
        """Prune everything unreadable: quarantined files, stale temp
        files, and live entries that fail to load.  Returns what was
        removed."""
        removed: list[Path] = []
        for path in self.quarantined() + self.stale_tmp():
            path.unlink(missing_ok=True)
            removed.append(path)
        for path in self.entries():
            try:
                MeasurementTable.load(path)
            except CorruptTableError:
                path.unlink(missing_ok=True)
                removed.append(path)
            except FileNotFoundError:
                pass
        return removed

    def clear(self) -> int:
        """Remove every entry (live, quarantined, and temp); returns the
        number of files removed."""
        count = 0
        for path in self.entries() + self.quarantined() + self.stale_tmp():
            path.unlink(missing_ok=True)
            count += 1
        return count


def cached_measurements(
    suite: Suite,
    suite_seed: int,
    loops_scale: float,
    config: LabelingConfig,
    cache_dir: Path | None = None,
    jobs: int | None = None,
    rollup: MeasurementRollup | None = None,
) -> MeasurementTable:
    """Measure the suite, or load the cached table if one matches."""
    store = CacheStore(cache_dir)
    key = config_key(suite_seed, loops_scale, config)
    table = store.load(key)
    if table is not None:
        if table.swp == config.swp and len(table) == suite.n_loops:
            return table
        # A key collision (or a foreign file under our name) — treat as a
        # miss and overwrite with the real thing.
        logger.warning("cache entry %s does not match its config; re-measuring", key)
    table = measure_suite(suite, config, jobs=jobs, rollup=rollup)
    store.store(key, table)
    return table


@dataclasses.dataclass(frozen=True)
class Artifacts:
    """Everything the experiments consume, built once and cached."""

    suite: Suite
    table: MeasurementTable
    dataset: LoopDataset
    config: LabelingConfig


def build_artifacts(
    suite_seed: int = 20050320,
    loops_scale: float = 1.0,
    swp: bool = False,
    config: LabelingConfig | None = None,
    cache_dir: Path | None = None,
    jobs: int | None = None,
    rollup: MeasurementRollup | None = None,
) -> Artifacts:
    """Generate the suite, measure it (cache-aware, optionally in
    parallel), and label it."""
    config = config or LabelingConfig(seed=suite_seed, swp=swp)
    suite = generate_suite(seed=suite_seed, loops_scale=loops_scale)
    table = cached_measurements(
        suite, suite_seed, loops_scale, config, cache_dir, jobs=jobs, rollup=rollup
    )
    dataset = table.to_dataset(config.min_cycles, config.min_benefit)
    return Artifacts(suite=suite, table=table, dataset=dataset, config=config)
