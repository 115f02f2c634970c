#!/usr/bin/env python3
"""Regenerate the committed fuzz seed corpora (fuzz/corpus/).

Deterministic by construction — no RNG, no timestamps — so re-running it
on a clean tree is a no-op diff. Each seed targets one decoder/scheduler
path the harness cares about; see the comments on each entry and
docs/static-analysis.md for how the corpora are used.

Usage: tools/make_fuzz_corpus.py [--root REPO_ROOT]
"""

from __future__ import annotations

import argparse
import pathlib
import sys

# CRC-16/CCITT-FALSE, bit-identical to src/clint/crc16.cpp.
_POLY = 0x1021
_INIT = 0xFFFF


def crc16(data: bytes) -> int:
    crc = _INIT
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ _POLY) if crc & 0x8000 else (crc << 1)
            crc &= 0xFFFF
    return crc


def with_crc(body: bytes) -> bytes:
    return body + crc16(body).to_bytes(2, "big")


def config_packet(req: int, pre: int, ben: int, qen: int) -> bytes:
    body = bytes([0xC5]) + b"".join(
        v.to_bytes(2, "big") for v in (req, pre, ben, qen)
    )
    return with_crc(body)


def grant_packet(node_id: int, gnt: int, flags: int) -> bytes:
    return with_crc(bytes([0x6A, ((node_id & 0xF) << 4) | (gnt & 0xF), flags]))


def packets_corpus() -> dict[str, bytes]:
    valid_cfg = config_packet(0x0001, 0x8000, 0xFFFF, 0xFFFF)
    valid_gnt = grant_packet(3, 5, 0x4)
    corrupt_crc = bytearray(valid_cfg)
    corrupt_crc[-1] ^= 0xFF
    wrong_type = bytearray(valid_cfg)
    wrong_type[0] = 0x00
    # CRC-valid grant frame with reserved flag bits set: the decoder must
    # reject it (canonical-frame rule, see GrantPacket::decode).
    reserved_bits = grant_packet(3, 5, 0xF4)
    return {
        "config_valid": valid_cfg,
        "config_idle": config_packet(0, 0, 0, 0),
        "config_truncated": valid_cfg[:5],
        "config_crc_corrupt": bytes(corrupt_crc),
        "config_wrong_type": bytes(wrong_type),
        "grant_valid": valid_gnt,
        "grant_all_flags": grant_packet(0xF, 0xF, 0x7),
        "grant_truncated": valid_gnt[:2],
        "grant_reserved_bits": reserved_bits,
        "oversize": valid_cfg + b"\x00",
        "one_byte": b"\xc5",
        "all_ff": b"\xff" * 11,
    }


def sched_input(sched: int, ports: int, cycles: int, iters: int,
                seed: int, rows: bytes) -> bytes:
    # Header layout must match fuzz/fuzz_scheduler.cpp's ByteReader
    # consumption order: scheduler index, ports, cycles, iterations, seed,
    # then two bytes per (cycle, input) request row.
    return bytes([sched, ports - 1, cycles - 1, iters - 1, seed]) + rows


def scheduler_corpus() -> dict[str, bytes]:
    out: dict[str, bytes] = {}
    # One seed per registered scheduler (13 names, factory order) so every
    # algorithm is on the fuzzer's frontier from minute zero: 8 ports,
    # 4 cycles of a dense-ish fixed pattern.
    rows = bytes([0xAD, 0x0B, 0x00, 0xFF, 0x13, 0x37, 0x00, 0x01] * 8)
    for idx in range(13):
        out[f"sched_{idx:02d}_dense"] = sched_input(idx, 8, 4, 4, 7, rows)
    # Structured extremes on the paper's own algorithm (index 0 =
    # lcf_central, which has a reference twin => differential path).
    diag = bytes(b for i in range(16) for b in (1 << (i % 8), 0)) * 2
    out["lcf_central_diagonal"] = sched_input(0, 16, 2, 4, 0, diag)
    out["lcf_central_empty"] = sched_input(0, 16, 8, 4, 0, b"")
    out["lcf_central_full"] = sched_input(0, 16, 3, 4, 0, b"\xff" * 96)
    out["single_port"] = sched_input(0, 1, 12, 1, 0, b"\x01\x01" * 12)
    return out


def trace_csv_corpus() -> dict[str, bytes]:
    # Trace files as fuzz/fuzz_trace_csv.cpp reads them: a
    # `slot,input,destination` header, then one arrival per row. The
    # harness replays accepted traces on a 16-port switch.
    header = b"slot,input,destination\n"
    rows = b"0,0,3\n0,1,2\n5,0,1\n7,15,15\n"
    return {
        "valid": header + rows,
        "header_only": header,
        "crlf": (header + rows).replace(b"\n", b"\r\n"),
        "bad_number": header + b"0,0,3\n1,x,2\n",
        "missing_field": header + b"0,0,3\n1,2\n",
        # Parses, but TraceTraffic rejects two arrivals at one (slot, input).
        "duplicate": header + b"4,2,1\n4,2,5\n",
        # (slot + 1) * inputs overflows 64 bits: the offered load must
        # still be tiny and positive.
        "huge_slot": header + b"0,0,1\n18446744073709551615,3,2\n",
        # The header is the first non-blank line, after an optional UTF-8
        # byte-order mark.
        "blank_then_header": b"\n\r\n" + header + rows,
        "bom_header": b"\xef\xbb\xbf" + header + rows,
    }


def write_corpus(root: pathlib.Path) -> int:
    wrote = 0
    for subdir, entries in (
        ("packets", packets_corpus()),
        ("scheduler", scheduler_corpus()),
        ("trace_csv", trace_csv_corpus()),
    ):
        directory = root / "fuzz" / "corpus" / subdir
        directory.mkdir(parents=True, exist_ok=True)
        for name, data in entries.items():
            path = directory / f"{name}.bin"
            if not path.exists() or path.read_bytes() != data:
                path.write_bytes(data)
                wrote += 1
    return wrote


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: inferred from this script)",
    )
    args = parser.parse_args()
    wrote = write_corpus(args.root)
    print(f"make_fuzz_corpus: {wrote} file(s) written/updated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
