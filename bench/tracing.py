"""Spans around calls into crawsim, recorded from outside the package.

``Tracer.install`` replaces the names each caller module imported (for
example ``crawsim.entities.ckc_join`` or ``crawsim.sim.decrypt``) and a few
class methods with wrappers that record one span per call: name, start,
end and the enclosing span.  Spans stay in memory in flat arrays;
``Tracer.summary`` derives per-name call counts and self times (a span's
duration minus the time its child spans cover).  ``Tracer.uninstall``
puts every original back.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.extra: Counter = Counter()  # counts the spans alone cannot give
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, prep=None, after=None):
        """``prep(args)`` runs inside the span and returns (args, state);
        ``after(args, state, result)`` runs once the span has closed."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        raised = self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                state = None
                if prep is not None:
                    args, state = prep(args)
                out = fn(*args, **kwargs)
            except Exception:
                raised[name + ".raised"] += 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, state, out)
            return out

        return wrapper

    def patch(self, owner, attr: str, name: str, prep=None, after=None) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, prep, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self, crawsim_modules: dict) -> None:
        """Wrap the layer boundaries of crawsim (modules keyed by short name)."""
        m = crawsim_modules
        ckc, crypto, ent, lkh, otp, scn, sec, sim = (
            m[k] for k in ("ckc", "crypto", "entities", "lkh", "otp", "scenario", "secrecy", "sim")
        )
        try:
            # crypto primitives, under the names each caller module imported
            for owner in (ckc, otp, sec):
                self.patch(owner, "hash_f", "crypto.hash_f")
            for owner in (ckc, sec):
                self.patch(owner, "hash_f_xor", "crypto.hash_f_xor")
            self.patch(otp, "hash_E", "crypto.hash_E")
            for owner in (ckc, lkh, sim):
                self.patch(owner, "encrypt", "crypto.encrypt")
            # ckc imports decrypt inside a function, from the crypto module
            for owner in (crypto, ent, lkh, sim):
                self.patch(owner, "decrypt", "crypto.decrypt")

            self.patch(ent, "make_challenge", "otp.make_challenge")
            self.patch(ent, "verify", "otp.verify", after=self._count_rejected)

            self.patch(ent, "ckc_join", "ckc.join")
            self.patch(ent, "ckc_leave", "ckc.leave", after=self._count_covers)
            self.patch(ent, "ckc_member_refresh_join", "ckc.refresh")
            self.patch(ent, "ckc_member_refresh_leave", "ckc.refresh")
            # the joiner's own view is member-side work too; its own span keeps
            # it out of the self time of AreaState.join
            self.patch(ent, "build_joiner_view", "ckc.joiner_view")
            self.patch(ent, "lkh_join", "lkh.join")
            self.patch(ent, "lkh_leave", "lkh.leave")
            self.patch(ent, "lkh_member_refresh_join", "lkh.refresh")
            self.patch(ent, "lkh_member_refresh_leave", "lkh.refresh")
            self.patch(ent, "build_lkh_joiner_view", "lkh.joiner_view")

            self.patch(ent.AreaState, "join", "entities.area_join")
            self.patch(ent.AreaState, "leave", "entities.area_leave")
            self.patch(ent.MainList, "credit", "entities.credit")

            rec = sec.RunRecorder
            self.patch(rec, "record_keys", "secrecy.record", *self._grows(1, _universe))
            self.patch(rec, "record_codes", "secrecy.record", *self._grows(1, _codes))
            self.patch(rec, "note_knowledge", "secrecy.record", *self._grows(2, _knowledge))
            self.patch(rec, "note_codes", "secrecy.record", *self._grows(2, _member_codes))
            self.patch(rec, "record_ciphertext", "secrecy.record", after=self._count_ciphertext)
            self.patch(rec, "open_window", "secrecy.record")
            self.patch(rec, "close_window", "secrecy.record")
            self.patch(sec, "check_secrecy", "secrecy.scan")
            self.patch(sec, "derivation_edges", "secrecy.edges", after=self._count_edges)
            self.patch(sec, "closure", "secrecy.closure")

            self.patch(sim.Simulation, "__init__", "sim.setup")
            self.patch(sim.Simulation, "run", "sim.run")
            self.patch(scn, "validate_doc", "scenario.validate")
        except BaseException:
            self.uninstall()
            raise

    # -- counting hooks -------------------------------------------------------

    def _count_rejected(self, args, state, outcome) -> None:
        self.extra["otp.auth_rejected"] += not outcome.accepted

    def _count_covers(self, args, state, result) -> None:
        self.extra["ckc.covers"] += len(result.notice.cover_codes)

    def _count_ciphertext(self, args, state, out) -> None:
        self.extra["secrecy.record_offered"] += 1
        self.extra["secrecy.record_new"] += 1

    def _count_edges(self, args, state, edges) -> None:
        universe, codes = args
        self.extra["secrecy.edge_hashes"] += len(universe) * (1 + len(codes))
        self.extra["secrecy.edges_found"] += sum(len(v) for v in edges.values())

    def _grows(self, pos: int, target):
        """Hooks for a recorder method whose argument ``pos`` is a collection
        of items added to the set ``target(args)``: count the items offered
        and the items that were new."""
        extra = self.extra

        def prep(args):
            items = args[pos]
            if not hasattr(items, "__len__"):
                items = list(items)
                args = args[:pos] + (items,) + args[pos + 1:]
            return args, len(target(args))

        def after(args, before, out):
            extra["secrecy.record_offered"] += len(args[pos])
            extra["secrecy.record_new"] += len(target(args)) - before

        return prep, after

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}


def _universe(args):
    return args[0].key_universe


def _codes(args):
    return args[0].codes


def _knowledge(args):
    return args[0].knowledge.get(args[1], ())


def _member_codes(args):
    return args[0].member_codes.get(args[1], ())
