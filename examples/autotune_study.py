#!/usr/bin/env python
"""Auto-tune the EmbRace schedule for *this* machine.

Probes the local transport with multi-size AllReduces, least-squares
fits the alpha-beta link model (latency + bandwidth) from the measured
spans, ranks a grid of scheduling knobs (dense chunk/bucket sizes,
chunk cap) on the calibrated simulator, then replays the top candidates
on the real backend: predicted vs measured step time, default vs tuned
computation stall, and a bit-identity check on the loss curves —
tuning only moves *when* bytes travel, never the arithmetic.

Run:  python examples/autotune_study.py [--world 2] [--steps 4]
      [--backend thread|process] [--vocab 1024] [-o tuned.json]
"""

import argparse

from repro.models.config import GNMT8
from repro.tune import SMOKE_SIZES_BYTES, SearchSpace, autotune


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--world", type=int, default=2)
    parser.add_argument("--steps", type=int, default=4)
    parser.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="thread is fastest for a demo; process probes the real "
        "shared-memory transport",
    )
    parser.add_argument("--vocab", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("-o", "--out", default=None,
                        help="write the winning TunedProfile JSON here")
    args = parser.parse_args()

    config = GNMT8.scaled(vocab=args.vocab, dim_divisor=16)
    space = SearchSpace(
        chunk_elems=(16_384, 65_536, 262_144),
        max_chunks=(4, 8),
        bucket_elems=(65_536, 262_144),
    )
    print(
        f"probing {args.world}-rank {args.backend} AllReduce, fitting "
        f"alpha-beta, searching {len(list(space.candidates()))} knob "
        f"candidates on the calibrated simulator..."
    )
    report = autotune(
        config,
        world_size=args.world,
        backend=args.backend,
        steps=args.steps,
        seed=args.seed,
        space=space,
        probe_sizes=SMOKE_SIZES_BYTES,
        probe_iters=4,
        rungs=(2, args.steps),
        top_k=2,
    )
    print()
    print(report.render())

    default, winner = report.default, report.winner
    print()
    print(f"default : {default.candidate.label()}")
    print(f"          measured step {default.measured_step_s * 1e3:.2f} ms, "
          f"stall {default.measured_stall_frac:.1%}")
    print(f"tuned   : {winner.candidate.label()}")
    print(f"          measured step {winner.measured_step_s * 1e3:.2f} ms, "
          f"stall {winner.measured_stall_frac:.1%} "
          f"(predicted within {winner.step_time_error:.1%})")
    if winner is default:
        print("the defaults already win on this machine — the profile "
              "records that, plus the fitted link constants.")
    if not report.losses_identical:
        raise SystemExit("loss curves diverged across candidates (bug!)")
    print("loss curves bit-identical across every candidate — tuning "
          "never touches the arithmetic.")
    if args.out:
        report.tuned_profile.save(args.out)
        print(f"\nwrote {args.out} — reuse it with "
              f"RealTrainer(..., knobs=TunedProfile.load({args.out!r}).knobs)")


if __name__ == "__main__":
    main()
