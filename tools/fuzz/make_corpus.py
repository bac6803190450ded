#!/usr/bin/env python3
"""Builds structure-aware seed corpora for the Tier F fuzz harnesses.

Usage:
  tools/fuzz/make_corpus.py --tpm build/tpm --out corpus/

Seeds come from two sources:

  * Valid artifacts emitted by the production writers, driven through the
    `tpm` CLI: TPMB databases (`tpm generate`), TPMC checkpoints
    (`tpm mine --checkpoint-out`), TISD/CSV text, and metrics JSON
    (`tpm mine --metrics-out`).
  * The deterministic corruption generators folded in from
    tests/io/fuzz_test.cc: byte mutations, truncations, and magic-prefixed
    garbage over those valid artifacts (fixed RNG seed, so reruns are
    byte-identical and CI corpus caching works).

Layout: <out>/<harness>/<name>, one directory per harness, matching the
corpus argument each fuzzing/replay binary takes. Harnesses with a leading
mode-selector byte (fuzz_text_loader, fuzz_mine) get it prepended here so
every seed exercises a distinct configuration.

Never overwrites files with identical content (keeps mtimes stable for CI
caches); refreshes anything whose bytes changed.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import zlib

HARNESSES = (
    "fuzz_binary_format",
    "fuzz_checkpoint",
    "fuzz_checkpoint_roundtrip",
    "fuzz_text_loader",
    "fuzz_json",
    "fuzz_flags",
    "fuzz_mine",
)

# Deterministic: the corpus is a build artifact, not a source of randomness.
RNG_SEED = 0x7F5A2B


def run_tpm(tpm, *args):
    proc = subprocess.run([tpm, *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"tpm {' '.join(args)} failed ({proc.returncode}):\n{proc.stderr}")


# --- TPMC/JSON canonicalization ---------------------------------------------
#
# `tpm mine` embeds wall-clock and RSS readings (elapsed seconds, io.*.ns
# counters, process.* gauges) in its checkpoint and metrics outputs, so two
# otherwise-identical runs emit different bytes. Seeds must be byte-stable
# across reruns (the CI corpus cache keys on that), so both artifacts are
# canonicalized: the volatile values are zeroed and the result re-signed.

VOLATILE_COUNTER_SUFFIXES = (".ns", "_ns")
VOLATILE_GAUGE_PREFIXES = ("process.",)


def _get_varint(buf, pos):
    value = shift = 0
    while True:
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value & 0xFFFFFFFFFFFFFFFF, pos
        shift += 7


def _put_varint(out, value):
    while True:
        if value < 0x80:
            out.append(value)
            return
        out.append((value & 0x7F) | 0x80)
        value >>= 7


def canonicalize_tpmc(blob):
    """Zeroes elapsed time and volatile metric values in a TPMC v3 blob.

    Walks the exact serialization layout of src/io/checkpoint.cc, rewriting
    in place (all rewritten fields are varints, so lengths can change), and
    re-signs the CRC-32 trailer. Raises on anything that does not look like
    the checkpoint the production writer just emitted.
    """
    buf = blob[:-4]  # drop the CRC trailer
    out = bytearray(buf[:4])
    assert bytes(buf[:4]) == b"TPMC", "not a TPMC artifact"
    pos = 4

    def copy_varint(pos):
        value, end = _get_varint(buf, pos)
        out.extend(buf[pos:end])
        return value, end

    def copy_string(pos):
        length, pos = copy_varint(pos)
        out.extend(buf[pos:pos + length])
        return pos + length

    version, pos = copy_varint(pos)
    assert version == 3, f"unexpected TPMC version {version}"
    # identity: fingerprint, language, algo, minsup, max_items, max_length,
    # max_window, pruning mask
    _, pos = copy_varint(pos)
    pos = copy_string(pos)
    pos = copy_string(pos)
    for _ in range(5):
        _, pos = copy_varint(pos)
    # progress: total_units, elapsed (zeroed), budget, completed units + the
    # aligned per-unit pattern counts
    _, pos = copy_varint(pos)
    _, pos = _get_varint(buf, pos)  # elapsed double-bits: drop...
    _put_varint(out, 0)             # ...and write bits(0.0) == 0
    _, pos = copy_varint(pos)
    num_completed, pos = copy_varint(pos)
    for _ in range(2 * num_completed):
        _, pos = copy_varint(pos)
    # patterns
    count, pos = copy_varint(pos)
    for _rec in range(count):
        _, pos = copy_varint(pos)  # support
        nitems, pos = copy_varint(pos)
        for _ in range(nitems):
            _, pos = copy_varint(pos)
        noffsets, pos = copy_varint(pos)
        for _ in range(noffsets):
            _, pos = copy_varint(pos)
    # metrics: counters / gauges / histograms
    ncounters, pos = copy_varint(pos)
    for _ in range(ncounters):
        length, pos = copy_varint(pos)
        name = bytes(buf[pos:pos + length]).decode()
        out.extend(buf[pos:pos + length])
        pos += length
        value, pos = _get_varint(buf, pos)
        if name.endswith(VOLATILE_COUNTER_SUFFIXES):
            value = 0
        _put_varint(out, value)
    ngauges, pos = copy_varint(pos)
    for _ in range(ngauges):
        length, pos = copy_varint(pos)
        name = bytes(buf[pos:pos + length]).decode()
        out.extend(buf[pos:pos + length])
        pos += length
        value, pos = _get_varint(buf, pos)  # zigzag; zero encodes as zero
        if name.startswith(VOLATILE_GAUGE_PREFIXES):
            value = 0
        _put_varint(out, value)
    nhistograms, pos = copy_varint(pos)
    for _ in range(nhistograms):
        pos = copy_string(pos)
        nbounds, pos = copy_varint(pos)
        for _ in range(nbounds):
            _, pos = copy_varint(pos)
        for _ in range(nbounds + 1):  # counts: one bucket past the bounds
            _, pos = copy_varint(pos)
        _, pos = copy_varint(pos)  # count
        _, pos = copy_varint(pos)  # sum
    assert pos == len(buf), f"trailing bytes: {pos} != {len(buf)}"
    crc = zlib.crc32(bytes(out))
    out.extend((crc >> (8 * i)) & 0xFF for i in range(4))
    return bytes(out)


def canonicalize_metrics_json(blob):
    """Zeroes volatile values in a metrics JSON blob, re-dumped sorted."""
    doc = json.loads(blob.decode())
    for name in doc.get("counters", {}):
        if name.endswith(VOLATILE_COUNTER_SUFFIXES):
            doc["counters"][name] = 0
    for name in doc.get("gauges", {}):
        if name.startswith(VOLATILE_GAUGE_PREFIXES):
            doc["gauges"][name] = 0
    return json.dumps(doc, sort_keys=True, indent=1).encode() + b"\n"


def generate_artifacts(tpm, scratch):
    """Emits valid TPMB/TISD/CSV/TPMC/JSON artifacts via the CLI writers."""
    artifacts = {"tpmb": [], "tisd": [], "csv": [], "tpmc": [], "json": []}
    specs = [  # (sequences, symbols, seed) — tiny, distinct shapes
        (3, 4, 1),
        (10, 6, 2),
        (25, 12, 3),
    ]
    for n, k, seed in specs:
        base = os.path.join(scratch, f"db-{n}-{k}-{seed}")
        for ext in ("tpmb", "tisd", "csv"):
            path = f"{base}.{ext}"
            run_tpm(tpm, "generate", f"--kind=quest", f"--sequences={n}",
                    f"--symbols={k}", f"--seed={seed}", f"--output={path}")
            with open(path, "rb") as f:
                artifacts[ext].append(f.read())
        ckpt = f"{base}.tpmc"
        metrics = f"{base}.json"
        run_tpm(tpm, "mine", f"{base}.tpmb", "--minsup=0.4",
                "--checkpoint-every=0", f"--checkpoint-out={ckpt}",
                f"--metrics-out={metrics}", f"--output={base}.patterns")
        with open(ckpt, "rb") as f:
            artifacts["tpmc"].append(canonicalize_tpmc(f.read()))
        with open(metrics, "rb") as f:
            artifacts["json"].append(canonicalize_metrics_json(f.read()))
    return artifacts


# --- corruption generators (from tests/io/fuzz_test.cc) ---------------------


def mutated(rng, blob, trials):
    """1-4 random byte mutations per trial."""
    out = []
    for _ in range(trials):
        buf = bytearray(blob)
        for _ in range(1 + rng.randrange(4)):
            buf[rng.randrange(len(buf))] = rng.randrange(256)
        out.append(bytes(buf))
    return out


def truncated(rng, blob, trials):
    return [blob[: rng.randrange(len(blob))] for _ in range(trials)]


def garbage(rng, magic, trials):
    """Random bytes; half the trials get a correct magic prefix."""
    out = []
    for trial in range(trials):
        buf = bytearray(rng.randrange(8, 300))
        for i in range(len(buf)):
            buf[i] = rng.randrange(256)
        if trial % 2 == 0 and len(buf) >= 4:
            buf[:4] = magic
        out.append(bytes(buf))
    return out


def semi_structured_lines(rng, trials):
    """Nearly-valid TISD lines exercising the field validators."""
    fields = ["s1", "A", "5", "-3", "x", "", "999999999999999999999",
              "3.5", "#"]
    out = []
    for _ in range(trials):
        text = ""
        for _ in range(1 + rng.randrange(5)):
            text += " ".join(rng.choice(fields)
                             for _ in range(rng.randrange(6)))
            text += "\n"
        out.append(text.encode())
    return out


def random_text(rng, trials):
    charset = "abAB019 -#\t.,\n"
    return ["".join(rng.choice(charset)
                    for _ in range(rng.randrange(200))).encode()
            for _ in range(trials)]


# --- per-harness corpora ----------------------------------------------------


def binary_corpus(rng, artifacts):
    seeds = list(artifacts["tpmb"])
    for blob in artifacts["tpmb"]:
        seeds += mutated(rng, blob, 6)
        seeds += truncated(rng, blob, 6)
    seeds += garbage(rng, b"TPMB", 10)
    return seeds


def checkpoint_corpus(rng, artifacts):
    seeds = list(artifacts["tpmc"])
    for blob in artifacts["tpmc"]:
        seeds += mutated(rng, blob, 6)
        seeds += truncated(rng, blob, 6)
    seeds += garbage(rng, b"TPMC", 10)
    return seeds


def text_corpus(rng, artifacts):
    # Leading byte = mode selector (dialect / error mode / merge); cover all
    # six for the valid artifacts, then fold in the gtest generators.
    seeds = []
    for mode in range(8):
        for blob in artifacts["tisd" if mode % 2 == 0 else "csv"]:
            seeds.append(bytes([mode]) + blob)
    for body in semi_structured_lines(rng, 20) + random_text(rng, 20):
        seeds.append(bytes([rng.randrange(8)]) + body)
    return seeds


def json_corpus(rng, artifacts):
    handwritten = [
        b"null", b"true", b"[1,2,3]", b'{"a":{"b":[1.5e3,-0.25]}}',
        b'{"counter":18446744073709551615}',
        b'"\\"escaped\\\\"',
        b"[" * 80 + b"]" * 80,
        b'{"deep":' * 16 + b"0" + b"}" * 16,
    ]
    seeds = list(artifacts["json"]) + handwritten
    for blob in artifacts["json"]:
        seeds += mutated(rng, blob, 4)
        seeds += truncated(rng, blob, 4)
    return seeds


def flags_corpus(rng, _artifacts):
    samples = [
        b"--name=x\n--count=7\npositional",
        b"--flag\n--ratio=0.5\n--progress",
        b"--progress=2.5\n--name\nvalue",
        b"--count\n-9223372036854775808",
        b"--unknown=1",
        b"--count=notanumber",
        b"--ratio\n1e308\nrest",
        b"--flag=false\n--flag=true\n--flag=maybe",
    ]
    out = list(samples)
    for blob in samples:
        out += mutated(rng, blob, 3)
    return out


def mine_corpus(rng, artifacts):
    # Leading selector byte (language/prunings/window/top-K bar; bit 0x20
    # adds a K - 1 byte), then a TPMB body without its CRC trailer — the
    # harness re-signs before parsing.
    seeds = []
    for header in (b"\x00", b"\x01", b"\x0e", b"\x1f", b"\x21\x00",
                   b"\x2e\x04", b"\x3f\x09"):
        for blob in artifacts["tpmb"]:
            body = blob[:-4]
            seeds.append(header + body)
            seeds += [header + m for m in mutated(rng, body, 2)]
    return seeds


BUILDERS = {
    "fuzz_binary_format": binary_corpus,
    "fuzz_checkpoint": checkpoint_corpus,
    "fuzz_checkpoint_roundtrip": checkpoint_corpus,
    "fuzz_text_loader": text_corpus,
    "fuzz_json": json_corpus,
    "fuzz_flags": flags_corpus,
    "fuzz_mine": mine_corpus,
}


def write_corpus(out_dir, harness, seeds):
    target = os.path.join(out_dir, harness)
    os.makedirs(target, exist_ok=True)
    written = 0
    for i, blob in enumerate(seeds):
        path = os.path.join(target, f"seed-{i:04d}")
        if os.path.exists(path):
            with open(path, "rb") as f:
                if f.read() == blob:
                    continue
        with open(path, "wb") as f:
            f.write(blob)
        written += 1
    return len(seeds), written


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tpm", required=True, help="path to the built tpm CLI")
    parser.add_argument("--out", required=True, help="corpus output directory")
    args = parser.parse_args()

    if not os.path.exists(args.tpm):
        print(f"tpm binary not found: {args.tpm}", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory() as scratch:
        artifacts = generate_artifacts(args.tpm, scratch)

    for harness in HARNESSES:
        # Fresh RNG per harness (crc32, not hash(): PYTHONHASHSEED must not
        # affect corpus bytes): adding one harness never shifts another's
        # seeds.
        rng = random.Random(RNG_SEED ^ zlib.crc32(harness.encode()))
        total, written = write_corpus(args.out, harness,
                                      BUILDERS[harness](rng, artifacts))
        print(f"{harness}: {total} seeds ({written} new/updated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
