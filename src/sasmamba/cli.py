"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure. Output files are written atomically, and a command's outputs are
committed together; a failing command leaves no partial outputs behind and
replaces no file.
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import os
import sys
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .checks import run_gradcheck
from .errors import DimensionError, FormatError, NumericError, SasMambaError
from .fileio import (load_ckpt, parse_json, read_keypoints, read_keypoints_and_fps,
                     save_ckpt, write_keypoints)
from .metrics import mpjpe_p1, mpjpe_p2
from .model import (ModelConfig, count_macs, count_params, forward,
                    group_counts, init_model)
from .training import (LossWeights, OptimState, SyntheticDataset, Camera,
                       gen_synthetic, train, write_trace_csv)

USAGE_ERROR, DATA_ERROR, NUMERIC_ERROR = 1, 2, 3


def _one_blas_thread() -> None:
    """Run numpy's OpenBLAS at one thread unless a thread variable is set, as
    the thread count splits a product's sums and so would move seeded results.
    The variables act only before numpy's first import, hence OpenBLAS's own
    setter, found as threadpoolctl finds it; another BLAS is left alone."""
    if {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"} & set(os.environ):
        return
    core = ctypes.CDLL((getattr(np, "_core", None) or np.core)._multiarray_umath.__file__)
    for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "openblas_set_num_threads"):
        if hasattr(core, name):
            setter = getattr(core, name)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return


# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _heap_keeps_freed_memory() -> None:
    """Serve arrays of up to 32 MiB from glibc's heap and keep up to 64 MiB
    of freed memory there, the values glibc's own dynamic thresholds reach at
    their ceiling. glibc maps each array above its mmap threshold afresh and
    raises that threshold only to the largest mapped array freed so far. As
    SA-Conv's forward frees no whole-map gather, a default forward's larger
    arrays were mapped and unmapped in every layer: about 26,000 minor page
    faults a forward, against 1-3 with these values. A ``MALLOC_*_``
    variable, which sets the allocator itself, or a libc without ``mallopt``
    leaves the allocator as it is."""
    if any(k.startswith("MALLOC_") and k.endswith("_") for k in os.environ):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _load_config(path) -> ModelConfig:
    with open(path, "rb") as fh:
        return ModelConfig.from_dict(parse_json(fh.read(), "config"))


@contextmanager
def _outputs():
    """Stage a command's output files, then commit them together. The block
    gets ``write(fn, path, *args)``, which runs ``fn(staged, *args)`` for a
    temporary sibling ``staged`` of ``path``, and ``made``, the directories
    it makes, outermost first. Once the block succeeds and no path is a
    directory, every staged file is renamed to its path; until then nothing
    the command writes replaces a file. Otherwise the staged files and the
    made directories are removed, so a failing command leaves no partial
    outputs behind and every file it would have overwritten as it was."""
    staged: dict[Path, Path] = {}         # path -> staged; a second write replaces it
    made: list[Path] = []

    def write(fn, path, *args):
        path = Path(path)
        tmp = staged[path] = path.with_name(f".{path.name}.{os.getpid()}.staged")
        try:
            fn(tmp, *args)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None

    try:
        yield write, made
        for path in staged:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for path, tmp in staged.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in staged.values():
            with suppress(OSError):
                tmp.unlink()
        for path in reversed(made):
            with suppress(OSError):
                path.rmdir()
        raise


def _cmd_init(args) -> int:
    cfg = _load_config(args.config) if args.config else ModelConfig()
    model = init_model(cfg, seed=args.seed)
    save_ckpt(model, args.out)
    total, _ = count_params(cfg)
    print(f"initialized model with {total} parameters -> {args.out}")
    return 0


def _cmd_synth(args) -> int:
    # generated first, so that rejected arguments leave no directory behind
    ds = gen_synthetic(args.seed, args.sequences, args.frames, args.joints,
                       noise_sigma=args.noise)
    out = Path(args.out)
    with _outputs() as (write, made):
        made += reversed([d for d in (out, *out.parents) if not d.exists()])
        out.mkdir(parents=True, exist_ok=True)
        for i, pair in enumerate(ds.pairs):
            for dims, poses in zip(("2d", "3d"), pair):
                write(write_keypoints, out / f"seq_{i:04d}_{dims}.json", poses)
    print(f"wrote {len(ds.pairs)} sequence pairs -> {out}")
    return 0


def _load_dataset(data_dir) -> SyntheticDataset:
    root = Path(data_dir)
    pairs = []
    for p2d in sorted(root.glob("*_2d.json")):
        p3d = root / p2d.name.replace("_2d.json", "_3d.json")
        if not p3d.exists():
            raise FormatError(f"missing 3d counterpart for {p2d.name}")
        kp2d = read_keypoints(p2d)
        pose3d = read_keypoints(p3d)
        if kp2d.shape[-1] != 2 or pose3d.shape[-1] != 3:
            raise FormatError(f"dims mismatch in pair {p2d.name}")
        pairs.append((kp2d, pose3d))
    if not pairs:
        raise FormatError(f"no *_2d.json/*_3d.json pairs found under {root}")
    return SyntheticDataset(pairs=pairs, seed=0, camera=Camera())


def _cmd_train(args) -> int:
    # first: a rejected rate or decay leaves nothing loaded or written
    optim = OptimState(lr=args.lr, decay_factor=args.lr_decay)
    model = load_ckpt(args.model)
    dataset = _load_dataset(args.data)
    trace = train(model, dataset, epochs=args.epochs, batch=args.batch,
                  weights=LossWeights(), optim=optim, shuffle_seed=args.seed)
    with _outputs() as (write, _):
        if args.trace:
            write(write_trace_csv, args.trace, trace)
        write(lambda path: save_ckpt(model, path), args.out)
    last = trace[-1] if trace else {"total": float("nan")}
    print(f"trained {args.epochs} epochs; final mean loss {last['total']:.6f} -> {args.out}")
    return 0


def _cmd_infer(args) -> int:
    model = load_ckpt(args.model)
    seq, fps = read_keypoints_and_fps(args.input)
    if seq.shape[-1] != 2:
        raise FormatError(f"inference input must be 2d keypoints, got dims={seq.shape[-1]}")
    # windows of T frames, the remainder as a shorter one
    window = model.config.T
    out = np.concatenate([forward(model, seq[i:i + window]).data
                          for i in range(0, len(seq), window)])
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite values in the model output")
    write_keypoints(args.output, out, fps)
    print(f"wrote {out.shape[0]} frames of 3d poses -> {args.output}")
    return 0


def _cmd_eval(args) -> int:
    pred = read_keypoints(args.pred)
    gt = read_keypoints(args.gt)
    if pred.shape[-1] != 3 or gt.shape[-1] != 3:
        raise FormatError("eval requires 3d sequences for both pred and gt")
    # checked before --center-only keeps one frame of each
    if pred.shape != gt.shape:
        raise DimensionError(f"pose shapes differ: {pred.shape} vs {gt.shape}")
    if args.center_only:
        pred = pred[pred.shape[0] // 2:pred.shape[0] // 2 + 1]
        gt = gt[gt.shape[0] // 2:gt.shape[0] // 2 + 1]
    if args.protocol == "p1":
        value = mpjpe_p1(pred, gt, root_index=args.root)
    else:
        value = mpjpe_p2(pred, gt)
    print(f"{value:.6f}")
    return 0


def _cmd_count(args) -> int:
    cfg = _load_config(args.config) if args.config else ModelConfig()
    total, breakdown = count_params(cfg)
    macs, macs_breakdown = count_macs(cfg, frames=args.frames)
    print(f"total_params {total}")
    print(f"total_macs {macs}")
    print(f"macs_per_frame {macs // args.frames}")
    print()
    print(f"{'module':<24}{'params':>12}")
    for key, val in sorted(group_counts(breakdown).items()):
        print(f"{key:<24}{val:>12}")
    print()
    print(f"{'component':<24}{'macs':>14}")
    for key, val in sorted(macs_breakdown.items()):
        print(f"{key:<24}{val:>14}")
    return 0


def _cmd_gradcheck(args) -> int:
    ok, lines = run_gradcheck(args.seed, rounds=args.rounds)
    for line in lines:
        print(line)
    if not ok:
        print("gradient check FAILED", file=sys.stderr)
        return NUMERIC_ERROR
    print("gradient check passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sasmamba",
                     description="structure-aware stride SSM pose-lifting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="initialize a model checkpoint")
    p.add_argument("--config", help="model config JSON (defaults when omitted)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_init)

    p = sub.add_parser("synth", help="generate a synthetic motion dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sequences", type=int, default=4)
    p.add_argument("--frames", type=int, default=27)
    p.add_argument("--joints", type=int, default=17)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("train", help="train a checkpoint on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--lr", type=float, default=5e-4)
    p.add_argument("--lr-decay", type=float, default=0.99)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("infer", help="lift a 2d keypoint file to 3d poses")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--protocol", choices=("p1", "p2"), default="p1")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--center-only", action="store_true")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("count", help="parameter and MAC accounting")
    p.add_argument("--config", help="model config JSON (defaults when omitted)")
    p.add_argument("--frames", type=int, default=243)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("gradcheck", help="finite-difference validation suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=5)
    p.set_defaults(fn=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    _one_blas_thread()
    _heap_keeps_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        # a model that overflows shows as one numeric error, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except OSError as exc:
        # a missing file, a directory, no permission: a path the user gave
        reason = ("file not found" if isinstance(exc, FileNotFoundError)
                  else f"cannot use path ({exc.strerror or type(exc).__name__})")
        print(f"error: {reason}: {exc.filename}", file=sys.stderr)
        return DATA_ERROR
    except MemoryError as exc:
        # a size no machine can hold, such as a huge frame count or width
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return DATA_ERROR
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except SasMambaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
