"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure. Output files are written atomically; a failing command leaves no
partial outputs behind.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .checks import run_gradcheck
from .errors import DomainError, FormatError, NumericError, SasMambaError
from .fileio import load_ckpt, read_keypoints, save_ckpt, write_keypoints
from .metrics import mpjpe_p1, mpjpe_p2
from .model import (ModelConfig, count_macs, count_params, forward,
                    group_counts, init_model)
from .training import (LossWeights, OptimState, SyntheticDataset, Camera,
                       gen_synthetic, train, write_trace_csv)

USAGE_ERROR, DATA_ERROR, NUMERIC_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _load_config(path) -> ModelConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed config JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise FormatError("config JSON nested too deeply") from exc
    return ModelConfig.from_dict(doc)


def _cmd_init(args) -> int:
    cfg = _load_config(args.config) if args.config else ModelConfig()
    model = init_model(cfg, seed=args.seed)
    save_ckpt(model, args.out)
    total, _ = count_params(cfg)
    print(f"initialized model with {total} parameters -> {args.out}")
    return 0


def _cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ds = gen_synthetic(args.seed, args.sequences, args.frames, args.joints,
                       noise_sigma=args.noise)
    for i, (kp2d, pose3d) in enumerate(ds.pairs):
        write_keypoints(out / f"seq_{i:04d}_2d.json", kp2d)
        write_keypoints(out / f"seq_{i:04d}_3d.json", pose3d)
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
    model = load_ckpt(args.model)
    dataset = _load_dataset(args.data)
    optim = OptimState(lr=args.lr, decay_factor=args.lr_decay)
    trace = train(model, dataset, epochs=args.epochs, batch=args.batch,
                  weights=LossWeights(), optim=optim, shuffle_seed=args.seed)
    save_ckpt(model, args.out)
    if args.trace:
        write_trace_csv(args.trace, trace)
    last = trace[-1] if trace else {"total": float("nan")}
    print(f"trained {args.epochs} epochs; final mean loss {last['total']:.6f} -> {args.out}")
    return 0


def _cmd_infer(args) -> int:
    model = load_ckpt(args.model)
    seq = read_keypoints(args.input)
    if seq.shape[-1] != 2:
        raise FormatError(f"inference input must be 2d keypoints, got dims={seq.shape[-1]}")
    window = model.config.T
    t_in = seq.shape[0]
    if t_in <= window:
        out = forward(model, seq).data
    else:
        n_windows = t_in // window
        rem = t_in - n_windows * window
        if rem:
            print(f"warning: dropping {rem} trailing frames "
                  f"(input {t_in} is not a multiple of window {window})", file=sys.stderr)
        chunks = [forward(model, seq[i * window:(i + 1) * window]).data
                  for i in range(n_windows)]
        out = np.concatenate(chunks, axis=0)
    write_keypoints(args.output, out)
    print(f"wrote {out.shape[0]} frames of 3d poses -> {args.output}")
    return 0


def _cmd_eval(args) -> int:
    pred = read_keypoints(args.pred)
    gt = read_keypoints(args.gt)
    if pred.shape[-1] != 3 or gt.shape[-1] != 3:
        raise FormatError("eval requires 3d sequences for both pred and gt")
    if args.center_only:
        pred = pred[pred.shape[0] // 2:pred.shape[0] // 2 + 1]
        gt = gt[gt.shape[0] // 2:gt.shape[0] // 2 + 1]
    if args.protocol == "p1":
        if not 0 <= args.root < gt.shape[1]:
            raise DomainError(f"--root {args.root} out of range for {gt.shape[1]} joints")
        value = mpjpe_p1(pred, gt, root_index=args.root)
    else:
        value = mpjpe_p2(pred, gt)
    print(f"{value:.6f}")
    if args.unit:
        print(f"unit: {args.unit}", file=sys.stderr)
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
    p.add_argument("--unit", help="display label only; does not rescale")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return DATA_ERROR
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except SasMambaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
