"""Full-fidelity training checkpoints (module + optimizer + RNG state).

``repro.nn.serialization`` round-trips a *module*; resuming a training
run bit-exactly needs more: the Adam moment estimates and step counter,
the numpy bit-generator state that drives mini-batch sampling, the
iteration counter, and the loss history accumulated so far.
:class:`Checkpointer` persists all of it in one dependency-free ``.npz``
archive:

* every ndarray (module parameters/buffers, optimizer moment tensors)
  is stored as its own array entry under a namespaced key;
* everything scalar or structural (iteration, RNG state, histories,
  optimizer hyper-parameters) lives in one JSON blob stored as a
  ``uint8`` array under ``__meta__``.

Writes are atomic (write to a ``.tmp`` sibling, ``fsync``, then
``os.replace``), so a run killed mid-save never leaves a truncated
checkpoint behind as the latest file; corrupt or truncated archives
raise :class:`CheckpointError` instead of loading garbage weights.
Only the newest ``keep_last`` checkpoints are retained.
"""

from __future__ import annotations

import json
import os
import re
import zipfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..nn.modules import Module
from ..nn.optim import Adam
from ..nn.utils import to_dtype

CHECKPOINT_VERSION = 1
_META_KEY = "__meta__"
_SEP = "::"
_FILE_RE = re.compile(r"^ckpt-(\d{8})\.npz$")


class CheckpointError(RuntimeError):
    """A checkpoint file is corrupt, truncated or structurally invalid."""


@dataclass
class TrainingState:
    """Everything needed to continue a training run bit-exactly.

    ``iteration`` is the *next* iteration to execute — a checkpoint
    written after finishing iteration ``k`` stores ``k + 1``.
    """

    iteration: int
    modules: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)
    optimizers: Dict[str, Dict] = field(default_factory=dict)
    rng_state: Optional[dict] = None
    history: Dict[str, List[float]] = field(default_factory=dict)
    phase: str = "train"


def capture_state(iteration: int, modules: Dict[str, Module],
                  optimizers: Dict[str, Adam],
                  rng: Optional[np.random.Generator] = None,
                  history: Optional[Dict[str, List[float]]] = None,
                  phase: str = "train") -> TrainingState:
    """Snapshot live training objects into a :class:`TrainingState`."""
    return TrainingState(
        iteration=int(iteration),
        modules={name: module.state_dict()
                 for name, module in modules.items()},
        optimizers={name: opt.state_dict()
                    for name, opt in optimizers.items()},
        rng_state=None if rng is None else rng.bit_generator.state,
        history={name: list(series)
                 for name, series in (history or {}).items()},
        phase=phase,
    )


def restore_state(state: TrainingState, modules: Dict[str, Module],
                  optimizers: Dict[str, Adam],
                  rng: Optional[np.random.Generator] = None) -> None:
    """Load a :class:`TrainingState` back into live training objects.

    Module/optimizer names must match what was captured; a missing name
    raises :class:`CheckpointError` rather than silently leaving a
    network at its random initialization.

    Restoring is dtype-faithful: the checkpoint's arrays carry their
    compute dtype, and the live module is cast to it *before* loading
    (``Module.load_state_dict`` adopts the live parameter dtype, so
    without the cast an f32 checkpoint loaded into a freshly built f64
    module would silently resume in double precision — no longer
    dtype-consistent with the run that wrote it).  Optimizer moments
    round-trip their stored dtype already.
    """
    for name, module in modules.items():
        if name not in state.modules:
            raise CheckpointError(
                f"checkpoint has no state for module {name!r} "
                f"(available: {sorted(state.modules)})")
        float_dtypes = {np.dtype(array.dtype)
                        for array in state.modules[name].values()
                        if np.dtype(array.dtype).kind == "f"}
        if len(float_dtypes) == 1:
            stored = float_dtypes.pop()
            if stored in (np.dtype(np.float32), np.dtype(np.float64)):
                to_dtype(module, stored)
        module.load_state_dict(state.modules[name])
    for name, optimizer in optimizers.items():
        if name not in state.optimizers:
            raise CheckpointError(
                f"checkpoint has no state for optimizer {name!r} "
                f"(available: {sorted(state.optimizers)})")
        optimizer.load_state_dict(state.optimizers[name])
    if rng is not None and state.rng_state is not None:
        rng.bit_generator.state = state.rng_state


# ----------------------------------------------------------------------
# npz encoding
# ----------------------------------------------------------------------
def _encode(state: TrainingState):
    arrays: Dict[str, np.ndarray] = {}
    meta = {
        "version": CHECKPOINT_VERSION,
        "phase": state.phase,
        "iteration": state.iteration,
        "rng_state": state.rng_state,
        "history": {k: [float(v) for v in series]
                    for k, series in state.history.items()},
        "modules": {},
        "optimizers": {},
    }
    for name, module_state in state.modules.items():
        meta["modules"][name] = sorted(module_state)
        for param, array in module_state.items():
            arrays[f"m{_SEP}{name}{_SEP}{param}"] = np.asarray(array)
    for name, opt_state in state.optimizers.items():
        scalars, array_fields = {}, {}
        for key, value in opt_state.items():
            if isinstance(value, list):
                array_fields[key] = [entry is not None for entry in value]
                for i, entry in enumerate(value):
                    if entry is not None:
                        arrays[f"o{_SEP}{name}{_SEP}{key}{_SEP}{i}"] = \
                            np.asarray(entry)
            else:
                scalars[key] = value
        meta["optimizers"][name] = {"scalars": scalars,
                                    "arrays": array_fields}
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    return arrays


def _decode(data: Dict[str, np.ndarray], path: str) -> TrainingState:
    if _META_KEY not in data:
        raise CheckpointError(
            f"checkpoint {path!r} has no {_META_KEY} entry — not a "
            "repro.runtime checkpoint (or written by an older format)")
    try:
        meta = json.loads(bytes(data[_META_KEY]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path!r} metadata is unreadable: {exc}") from exc
    version = meta.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has format version {version!r}, "
            f"expected {CHECKPOINT_VERSION}")

    def _array(key: str) -> np.ndarray:
        if key not in data:
            raise CheckpointError(
                f"checkpoint {path!r} is missing array {key!r} "
                "(truncated or tampered archive)")
        return data[key]

    modules = {
        name: {param: _array(f"m{_SEP}{name}{_SEP}{param}")
               for param in params}
        for name, params in meta["modules"].items()
    }
    optimizers = {}
    for name, spec in meta["optimizers"].items():
        opt_state: Dict = dict(spec["scalars"])
        for key, mask in spec["arrays"].items():
            opt_state[key] = [
                _array(f"o{_SEP}{name}{_SEP}{key}{_SEP}{i}") if present
                else None for i, present in enumerate(mask)]
        optimizers[name] = opt_state
    return TrainingState(
        iteration=int(meta["iteration"]),
        modules=modules,
        optimizers=optimizers,
        rng_state=meta.get("rng_state"),
        history={k: list(v) for k, v in meta.get("history", {}).items()},
        phase=meta.get("phase", "train"),
    )


# ----------------------------------------------------------------------
class Checkpointer:
    """Atomic, pruned checkpoint store for one training run.

    Parameters
    ----------
    directory:
        Where ``ckpt-<iteration>.npz`` files live; created on demand.
    keep_last:
        Number of most-recent checkpoints to retain (older ones are
        deleted after each successful save).
    """

    def __init__(self, directory: str, keep_last: int = 3):
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.directory = directory
        self.keep_last = keep_last

    # -- paths ----------------------------------------------------------
    def path_for(self, iteration: int) -> str:
        return os.path.join(self.directory, f"ckpt-{iteration:08d}.npz")

    def paths(self) -> List[str]:
        """Existing checkpoint paths, oldest first."""
        if not os.path.isdir(self.directory):
            return []
        names = sorted(n for n in os.listdir(self.directory)
                       if _FILE_RE.match(n))
        return [os.path.join(self.directory, n) for n in names]

    def latest_path(self) -> Optional[str]:
        paths = self.paths()
        return paths[-1] if paths else None

    # -- save / load ----------------------------------------------------
    def save(self, state: TrainingState) -> str:
        """Atomically write ``state``; returns the checkpoint path."""
        os.makedirs(self.directory, exist_ok=True)
        path = self.path_for(state.iteration)
        tmp = path + ".tmp"
        arrays = _encode(state)
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **arrays)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self._prune()
        return path

    def load(self, path: Optional[str] = None) -> TrainingState:
        """Load a checkpoint (the latest one when ``path`` is omitted)."""
        if path is None:
            path = self.latest_path()
            if path is None:
                raise CheckpointError(
                    f"no checkpoints found in {self.directory!r}")
        if not os.path.exists(path):
            raise FileNotFoundError(f"checkpoint {path!r} does not exist")
        try:
            with np.load(path, allow_pickle=False) as archive:
                data = {key: archive[key] for key in archive.files}
        except (zipfile.BadZipFile, ValueError, OSError, EOFError,
                KeyError) as exc:
            raise CheckpointError(
                f"checkpoint {path!r} is corrupt or truncated: "
                f"{exc}") from exc
        return _decode(data, path)

    # -- retention ------------------------------------------------------
    def _prune(self) -> None:
        paths = self.paths()
        for stale in paths[:-self.keep_last]:
            os.unlink(stale)
