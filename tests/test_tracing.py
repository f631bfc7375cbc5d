"""The benchmark's per-layer tracer (``bench/tracing.py``) counts a layer by
wrapping the name a caller module imported.  A scheme function that is no
longer called through that name drops out of the counts silently, so this
runs the bundled ``tables`` scenario (joins and leaves) and ``handoff``
(content frames) under the tracer for every scheme and checks that each
layer is still seen, and that every count equals the one pinned in
``golden/traced_counts.json``."""

from __future__ import annotations

import importlib
import importlib.util
import json
from importlib import resources
from pathlib import Path

import pytest

from crawsim import crypto
from crawsim.entities import SCHEMES
from crawsim.scenario import apply_overrides, validate_doc

MODULES = ("ckc", "crypto", "entities", "lkh", "otp", "scenario", "secrecy", "sim")
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
GOLDEN_COUNTS = Path(__file__).resolve().parent / "golden" / "traced_counts.json"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def traced_run(bundled: str, scheme: str):
    """Run a bundled scenario under the tracer; the tracer and the finished
    simulation."""
    raw = (resources.files("crawsim") / "scenarios" / f"{bundled}.json").read_text(encoding="utf-8")
    sc = validate_doc(apply_overrides(json.loads(raw), scheme=scheme))
    mods = {name: importlib.import_module(f"crawsim.{name}") for name in MODULES}
    tracer = load_tracer()()
    tracer.install(mods)
    try:
        sim = mods["sim"].Simulation(sc).run()
    finally:
        tracer.uninstall()
    return tracer, sim


def traced_counts() -> dict:
    """Every span's call count and the tracer's extra counts, for the
    bundled ``tables`` and ``handoff`` runs under each scheme, keyed
    ``"<bundled>/<scheme>"``: the layout of ``golden/traced_counts.json``,
    which is this dict written with ``json.dumps(..., indent=1,
    sort_keys=True)``."""
    out = {}
    for bundled in ("tables", "handoff"):
        for scheme in SCHEMES:
            tracer, _sim = traced_run(bundled, scheme)
            calls = {name: n for name, (n, _self_s) in tracer.summary().items()}
            out[f"{bundled}/{scheme}"] = {"calls": calls, "extra": dict(tracer.extra)}
    return out


def has_child(tracer, child: str, parent: str) -> bool:
    """Whether some span named ``child`` ran directly inside one named
    ``parent``."""
    c, p = tracer.names.index(child), tracer.names.index(parent)
    return any(
        nid == c and up >= 0 and tracer.name_id[up] == p
        for nid, up in zip(tracer.name_id, tracer.parent)
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_tracer_sees_every_layer(scheme):
    tracer, _sim = traced_run("tables", scheme)
    calls = {name: n for name, (n, _self_s) in tracer.summary().items()}
    family = "lkh" if scheme == "lkh" else "ckc"
    spans = [f"{family}.{step}" for step in ("join", "refresh", "leave", "joiner_view")]
    spans += ["crypto.decrypt", "entities.area_join", "entities.area_leave", "sim.run"]
    for span in spans:
        assert calls.get(span, 0) > 0, span
    if family == "ckc":
        # ckc.covers_per_leave reads the cover codes off each leave's notice
        assert tracer.extra["ckc.covers"] > 0
        # a member opens its leave cover payload inside its refresh, through
        # the crypto module, so the wrapped decrypt is seen there
        assert has_child(tracer, "crypto.decrypt", "ckc.refresh")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_each_joiner_opens_its_own_unicast(scheme):
    # the joiner's view, not the area server, decrypts the join unicast
    tracer, _sim = traced_run("tables", scheme)
    family = "lkh" if scheme == "lkh" else "ckc"
    assert has_child(tracer, "crypto.decrypt", f"{family}.joiner_view")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_each_decrypt_span_is_one_aes_gcm_open(scheme, monkeypatch):
    # crypto.decrypt_calls and crypto.aead_s measure real opens only if no
    # decrypt call is answered from a memo; the cryptography package's AESGCM
    # refuses a subclass, so a wrapper object counts the opens
    real = crypto.AESGCM
    opens = []

    class CountingAESGCM:
        def __init__(self, key):
            self.inner = real(key)

        def encrypt(self, nonce, data, aad):
            return self.inner.encrypt(nonce, data, aad)

        def decrypt(self, nonce, data, aad):
            opens.append(nonce)
            return self.inner.decrypt(nonce, data, aad)

    monkeypatch.setattr(crypto, "AESGCM", CountingAESGCM)
    tracer, _sim = traced_run("tables", scheme)
    calls = {name: n for name, (n, _self_s) in tracer.summary().items()}
    assert calls["crypto.decrypt"] == len(opens) > 0


@pytest.mark.parametrize("scheme", ("ckc_craw", "ckc_plain"))
def test_ckc_runs_enter_no_lkh_code(scheme):
    # the t=0 roster gets the CKC join unicast under every scheme, so a CKC
    # run, bootstrap included, never calls into the LKH module
    tracer, _sim = traced_run("tables", scheme)
    called = [name for name, (n, _self_s) in tracer.summary().items() if n]
    assert [name for name in called if name.startswith("lkh.")] == []


@pytest.mark.parametrize("scheme", SCHEMES)
def test_tracer_counts_one_credit_per_area_stretch(scheme):
    # an area's frames between two re-keying events are billed to all its
    # present members in one credit call, and each frame is opened at least
    # once; the bills add up to the deliveries
    tracer, sim = traced_run("handoff", scheme)
    calls = {name: n for name, (n, _self_s) in tracer.summary().items()}
    frames = sum(r.kind == "content_frame" for r in sim.recorder.ciphertexts)
    assert frames > 0
    assert 0 < calls["entities.credit"] <= (len(sim.ledger.events) + 1) * len(sim.areas)
    billed = sum(entry.service_accounting for entry in sim.mainlist.entries.values())
    assert billed == len(sim.ledger.frames)
    assert calls["crypto.decrypt"] >= frames


def test_traced_counts_match_the_golden():
    # a refactor that claims the same work keeps every traced count; a change
    # that moves one on purpose rewrites the golden file and says why
    golden = json.loads(GOLDEN_COUNTS.read_text(encoding="utf-8"))
    assert traced_counts() == golden
