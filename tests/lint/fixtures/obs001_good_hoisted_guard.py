# repro: module=repro.net.fake
"""GOOD: the flag is read once into a local before a hot loop; a name bound
to nothing but obs.ENABLED in its function guards like the flag itself."""
from repro import obs


def transmit(rounds):
    observing = obs.ENABLED
    while rounds:
        rounds -= 1
        if observing:
            obs.counter_inc("fake.rounds")
        elif rounds > 3:
            continue
    if rounds == 0 and observing:
        obs.observe("fake.rounds_left", float(rounds))


def on_idle(idle_s):
    observing = obs.ENABLED
    if not observing:
        return
    obs.observe("fake.idle_s", idle_s)
