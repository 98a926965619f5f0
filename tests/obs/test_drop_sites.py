"""Meta-test: every terminal packet drop goes through the drop ledger.

Conservation only holds if no code path discards a data packet without
telling the flight recorder. One call does both, ``DropLedger.drop``
in ``core/drops.py``, so the check is structural: nothing else calls
the recorder's ``drop``, no layer keeps a drop counter of its own, and
every terminal reason a layer names is handed to the ledger on that
line. A new drop site that counts on the side or talks to the recorder
directly fails here by name, whether or not a scenario exercises it.

Exempted counters are *frame-level* fates: MAC retry exhaustion and the
fault manager's per-frame RX filters don't consume the packet — the
MAC retries and, on exhaustion, routing's ``link_failed`` owns the
verdict (salvage / re-buffer / repair / terminal drop).
"""

import re
from pathlib import Path

from repro.core.drops import TERMINAL, TERMINAL_VALUES, DropReason

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The one module allowed to call the flight recorder's ``drop``.
LEDGER = "core/drops.py"

#: Layers that discard packets.
LAYERS = ("routing", "mac", "net", "faults")

#: Matches any drop-counter bump: ``drops_no_route += 1``,
#: ``self.drops += n``, ``crash_queue_drops += 1`` ...
_SITE = re.compile(r"(?:\.|\b)(\w*drops\w*)\s*\+=")

#: A terminal reason named in the source.
_TERMINAL_NAME = re.compile(
    r"DropReason\.(" + "|".join(sorted(r.name for r in TERMINAL)) + r")\b"
)

#: (file relative to src/repro, counter) pairs that are frame-level by
#: design — the packet survives the event, so no ledger verdict here.
EXEMPT = {
    # Retry exhaustion hands the packet to routing.link_failed.
    ("mac/base.py", "drops_retry_limit"),
    # Per-frame RX filters: the sender's MAC never sees an ACK and
    # retries; the packet's fate is decided at retry exhaustion.
    ("faults/manager.py", "partition_drops"),
    ("faults/manager.py", "link_drops"),
    # FaultManager.apply sums the radios' frames lost while powered
    # off (RadioStats) into ``fault_packets_lost``; frame-level too.
    ("faults/manager.py", "down_drops"),
}


def _lines(layers=None):
    """``(path relative to src/repro, line number, line)`` of the source."""
    roots = [SRC / layer for layer in layers] if layers else [SRC]
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            for n, line in enumerate(path.read_text().splitlines(), 1):
                yield rel, n, line


def _drop_sites():
    for rel, n, line in _lines(LAYERS):
        m = _SITE.search(line)
        if m:
            yield rel, n, m.group(1)


def test_flight_drop_is_called_by_the_ledger_only():
    callers = [
        f"{rel}:{n}" for rel, n, line in _lines()
        if "flight.drop(" in line and rel != LEDGER
    ]
    assert not callers, (
        "drop the packet through the DropLedger (sim.drops), which "
        f"tells the recorder: {callers}"
    )


def test_no_drop_counter_outside_the_ledger():
    counters = [
        f"{rel}:{n} ({counter})" for rel, n, counter in _drop_sites()
        if (rel, counter) not in EXEMPT
    ]
    assert not counters, (
        "terminal drops are counted by the DropLedger only (or add a "
        f"justified frame-level exemption): {counters}"
    )


def test_layers_hand_terminal_reasons_to_the_ledger():
    """A layer that names a terminal reason is dropping a packet with
    it, on that line, through the ledger."""
    stray = [
        f"{rel}:{n}" for rel, n, line in _lines(LAYERS)
        if _TERMINAL_NAME.search(line) and ".drop(" not in line
    ]
    assert not stray, f"terminal reasons used outside a ledger call: {stray}"


def test_exemption_list_stays_honest():
    """Every exemption matches a real site — stale entries rot."""
    seen = {(rel, counter) for rel, _n, counter in _drop_sites()}
    stale = EXEMPT - seen
    assert not stale, f"exempted drop sites no longer exist: {stale}"


def test_every_terminal_reason_has_a_call_site():
    """The taxonomy carries no dead reasons: each terminal member is
    handed to a ledger somewhere in the layers."""
    raised = {
        m.group(1)
        for _rel, _n, line in _lines(LAYERS)
        if ".drop(" in line
        for m in _TERMINAL_NAME.finditer(line)
    }
    unused = [
        r.name for r in DropReason
        if r.value in TERMINAL_VALUES and r.name not in raised
    ]
    assert not unused, f"terminal DropReasons never raised: {unused}"


def test_every_reason_appears_in_the_source():
    """Frame-level members too: each one is named (``DropReason.X``)
    or spelled by value (the PHY and MAC trace notes pass plain
    strings) somewhere in the source tree."""
    text = "\n".join(
        p.read_text() for p in SRC.rglob("*.py") if "drops.py" not in p.name
    )
    unused = [
        r.name for r in DropReason
        if f"DropReason.{r.name}" not in text and f'"{r.value}"' not in text
    ]
    assert not unused, f"DropReasons never raised or noted: {unused}"
