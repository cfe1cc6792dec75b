"""The ``repro retain`` command: the retention tier's CI gate.

``repro retain --smoke`` runs the seeded bounded-memory +
checkpoint-round-trip lane (:mod:`repro.retention.smoke`), optionally
appends its ``repro-retain/1`` document to ``BENCH_HISTORY.jsonl``
(``--history``), writes the full document as a JSON artifact
(``--out``), and leaves the checkpoint directory behind for artifact
upload (``--ckpt-dir``).  Exit status is the gate verdict.
"""

from __future__ import annotations

import datetime
import json


def _cmd_retain(args) -> int:
    from repro import bench
    from repro.retention.smoke import render_retain, run_retain

    if args.smoke:
        # CI-scale parameters: a couple of seconds, deterministic.
        epochs = min(args.epochs, 8)
        reports_per_epoch = min(args.reports_per_epoch, 256)
    else:
        epochs = args.epochs
        reports_per_epoch = args.reports_per_epoch
    document = run_retain(epochs=epochs,
                          reports_per_epoch=reports_per_epoch,
                          batch_size=args.batch_size,
                          window=args.window, seed=args.seed,
                          ckpt_dir=args.ckpt_dir)
    # Compact date, matching the bench/serve records in the history.
    document["date"] = datetime.date.today().strftime("%Y%m%d")
    print(render_retain(document))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    if args.history:
        bench.append_history(document, args.history)
        print(f"appended {document['schema']} record to {args.history}")
    return 0 if document["pass"] else 1


def add_retain_parser(sub) -> None:
    """Install ``repro retain`` on the main CLI's subparsers."""
    retain = sub.add_parser(
        "retain",
        help="retention tier: rotation smoke + checkpoint gate")
    retain.add_argument("--smoke", action="store_true",
                        help="CI-scale run (caps epochs/reports)")
    retain.add_argument("--epochs", type=int, default=8,
                        help="sealed epochs to stream (default 8)")
    retain.add_argument("--reports-per-epoch", type=int, default=256,
                        help="Key-Write reports per epoch (default 256)")
    retain.add_argument("--batch-size", type=int, default=32,
                        help="reports per submitted batch (default 32)")
    retain.add_argument("--window", type=int, default=1,
                        help="retention window in sealed epochs")
    retain.add_argument("--seed", type=int, default=11,
                        help="workload seed")
    retain.add_argument("--ckpt-dir", default=None,
                        help="keep the end-of-run checkpoint here")
    retain.add_argument("--out", default=None, metavar="FILE",
                        help="write the repro-retain/1 JSON document")
    retain.add_argument("--history", default=None, metavar="FILE",
                        help="append the document to this JSONL history")
    retain.set_defaults(fn=_cmd_retain)
