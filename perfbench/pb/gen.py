"""Seeded input generation for the benchmark workloads.

Everything the program under test receives is produced here from the
benchmark seed: NDJSON compile requests for ``compile_cold`` and
``serve_hotset``.  The same seed always yields byte-identical request
streams (see test_helpers.py).
"""

import json
import random

# Search budget of every compile request.  Part of the cache key, so
# it is fixed for the benchmark's lifetime.
GENERATIONS = 4

# ResNet-18 conv layers (ops::resnet18ConvLayers, batch 1):
# (label, cin, cout, out size, kernel, stride).
RESNET18 = [
    ("C0", 3, 64, 112, 7, 2), ("C1", 64, 64, 56, 3, 1),
    ("C2", 64, 64, 56, 1, 1), ("C3", 64, 128, 28, 3, 2),
    ("C4", 64, 128, 28, 1, 2), ("C5", 128, 128, 28, 3, 1),
    ("C6", 128, 256, 14, 3, 2), ("C7", 128, 256, 14, 1, 2),
    ("C8", 256, 256, 14, 3, 1), ("C9", 256, 512, 7, 3, 2),
    ("C10", 256, 512, 7, 1, 2), ("C11", 512, 512, 7, 3, 1),
]

# MobileNetV2 depthwise layers (ops::mobilenetV2Layers, batch 1):
# (label, channels, out size, kernel, stride).
MOBILENET_V2 = [
    ("L1", 32, 112, 3, 1), ("L2", 96, 56, 3, 2), ("L3", 144, 56, 3, 1),
    ("L4", 144, 28, 3, 2), ("L5", 192, 28, 3, 1), ("L6", 384, 14, 3, 1),
    ("L7", 576, 14, 3, 1),
]


def _shapes():
    """(name, op, dims) for every shape of the catalogue."""
    out = []
    for label, cin, cout, size, kernel, stride in RESNET18:
        out.append(("resnet18." + label, "conv2d",
                    {"batch": 1, "cin": cin, "cout": cout, "size": size,
                     "kernel": kernel, "stride": stride}))
    for label, ch, size, kernel, stride in MOBILENET_V2:
        out.append(("mobilenetv2." + label, "depthwise",
                    {"batch": 1, "cin": ch, "cout": ch, "size": size,
                     "kernel": kernel, "stride": stride}))
    # BERT-base projections at sequence length 128.
    for label, m, n, k in (("qkv", 128, 768, 768), ("ffn1", 128, 3072, 768),
                           ("ffn2", 128, 768, 3072), ("attn", 128, 128, 64)):
        out.append(("bert.gemm_" + label, "gemm", {"m": m, "n": n, "k": k}))
    for label, m, k in (("768", 768, 768), ("3072", 3072, 768)):
        out.append(("bert.gemv_" + label, "gemv", {"m": m, "k": k}))
    out += [
        ("conv1d", "conv1d",
         {"batch": 1, "cin": 64, "cout": 64, "size": 128, "kernel": 3}),
        ("conv3d", "conv3d",
         {"batch": 1, "cin": 16, "cout": 32, "size": 14, "kernel": 3,
          "depth": 8, "kdepth": 3}),
        ("group", "group",
         {"batch": 1, "cin": 64, "cout": 64, "size": 28, "kernel": 3,
          "groups": 4}),
        ("dilated", "dilated",
         {"batch": 1, "cin": 64, "cout": 64, "size": 28, "kernel": 3,
          "dilation": 2}),
        ("transposed", "transposed",
         {"batch": 1, "cin": 64, "cout": 32, "size": 28, "kernel": 3,
          "stride": 2}),
    ]
    return out


# (hw, dtype) targets of the catalogue.
TARGETS = [("v100", "f16"), ("a100", "f16"), ("xeon", "u8i8"),
           ("mali", "i8"), ("amx", "u8i8")]


def catalogue():
    """Fixed list of (name, request fields) in a stable order.  Every
    pair tensorizes on the seed commit, so every request exercises the
    mapping layers."""
    out = []
    for name, op, dims in _shapes():
        for hw, dtype in TARGETS:
            fields = {"op": op}
            fields.update(dims)
            fields["hw"] = hw
            if dtype != "f16":
                fields["dtype"] = dtype
            out.append((name + "@" + hw, fields))
    return out


def request_line(rid, fields, seed, extra=None):
    """One NDJSON compile request line."""
    req = {"type": "compile", "id": rid}
    req.update(fields)
    req["generations"] = GENERATIONS
    req["seed"] = seed
    if extra:
        req.update(extra)
    return json.dumps(req, separators=(",", ":"))


def cold_requests(seed, count):
    """compile_cold: ``count`` requests in rounds over the catalogue.

    Each round is a seeded shuffle of the whole catalogue, so every run
    holds the same mix of shapes and targets while the order and the
    per-request tuner seeds are drawn from ``seed``.  Tuner seeds never
    repeat within a stream, so no request is a cache hit.
    """
    rng = random.Random(seed)
    cat = catalogue()
    seeds = rng.sample(range(1, 1 << 40), count)
    out = []
    while len(out) < count:
        order = list(range(len(cat)))
        rng.shuffle(order)
        for idx in order:
            if len(out) == count:
                break
            name, fields = cat[idx]
            out.append((name, request_line("c%d" % len(out), fields,
                                           seeds[len(out)])))
    return out


def zipf_cdf(n, s):
    """Cumulative Zipf(s) weights over ranks 1..n."""
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return cdf


def zipf_draw(rng, cdf):
    """Rank (0-based) drawn from a Zipf CDF by bisection."""
    u = rng.random()
    lo, hi = 0, len(cdf) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cdf[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


# serve_hotset store: a gemm family grid on four targets, 1024 keys.
HOT_M = (32, 64, 96, 128, 192, 256, 384, 512)
HOT_N = (64, 128, 256, 512, 768, 1024, 2048, 3072)
HOT_K = (64, 256, 768, 1024)
HOT_TARGETS = (("v100", "f16"), ("xeon", "u8i8"), ("amx", "u8i8"),
               ("mali", "i8"))
# Tuner seed of every store entry (fixed: the store never depends on
# the benchmark seed, so its content is identical in every run).
STORE_SEED = 2022
# Zipf exponent of the key popularity.
ZIPF_S = 1.0
# Share of requests that are new members of a cached family.
NEW_SHARE = 0.05
# New members are drawn, in a seeded order, from this many fixed
# off-grid shapes, so every run compiles nearly the same set.
NEW_SHAPES = 512


def _hot_fields(m, n, k, hw, dtype):
    fields = {"op": "gemm", "m": m, "n": n, "k": k, "hw": hw}
    if dtype != "f16":
        fields["dtype"] = dtype
    return fields


def store_requests():
    """The store's request lines, one per key, in a fixed order.

    They carry "warm_start":"off", so they are cold explorations whose
    cache keys do not depend on what else was cached while the store
    was built; hot requests repeat them verbatim and hit.
    """
    out = []
    for hw, dtype in HOT_TARGETS:
        for m in HOT_M:
            for n in HOT_N:
                for k in HOT_K:
                    out.append(request_line(
                        "s%d" % len(out), _hot_fields(m, n, k, hw, dtype),
                        STORE_SEED, {"warm_start": "off"}))
    return out


def new_member_shapes():
    """NEW_SHAPES distinct gemm shapes off the store grid (fixed)."""
    rng = random.Random(0)
    off_m = [m for m in range(16, 513, 16) if m not in HOT_M]
    off_n = [n for n in range(64, 3073, 64) if n not in HOT_N]
    off_k = [k for k in range(64, 1025, 64) if k not in HOT_K]
    shapes = []
    seen = set()
    while len(shapes) < NEW_SHAPES:
        shape = (rng.choice(off_m), rng.choice(off_n), rng.choice(off_k),
                 rng.choice(HOT_TARGETS))
        if shape not in seen:
            seen.add(shape)
            shapes.append(shape)
    return shapes


def hot_requests(seed, count):
    """serve_hotset: ``count`` requests, each either a store key drawn
    by seeded Zipf popularity (the rank-to-key order is a seeded
    permutation) or, with probability NEW_SHARE, the next of the fixed
    off-grid shapes in a seeded order (new until all NEW_SHAPES were
    named).  New members carry no warm_start field, so the server's
    --warm-start neighbors default seeds their exploration from cached
    family members.

    Returns (lines, keys) where keys[i] is the store index a request
    repeats, or -1 for a new family member.
    """
    rng = random.Random(seed)
    store = store_requests()
    perm = list(range(len(store)))
    rng.shuffle(perm)
    cdf = zipf_cdf(len(store), ZIPF_S)
    fresh = new_member_shapes()
    rng.shuffle(fresh)
    lines, keys = [], []
    named = 0
    for i in range(count):
        rid = "h%d" % i
        if rng.random() < NEW_SHARE:
            m, n, k, (hw, dtype) = fresh[named % len(fresh)]
            named += 1
            lines.append(request_line(rid, _hot_fields(m, n, k, hw, dtype),
                                      STORE_SEED))
            keys.append(-1)
        else:
            key = perm[zipf_draw(rng, cdf)]
            req = json.loads(store[key])
            req["id"] = rid
            lines.append(json.dumps(req, separators=(",", ":")))
            keys.append(key)
    return lines, keys
