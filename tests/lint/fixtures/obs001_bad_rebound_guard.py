# repro: module=repro.net.fake
"""BAD: a local copy of obs.ENABLED is no guard — rebound, hoisted in a
different function, or passed in."""
from repro import obs


def transmit(rounds, verbose):
    observing = obs.ENABLED
    if verbose:
        observing = True
    if observing:
        obs.counter_inc("fake.rounds")


def elsewhere():
    observing = obs.ENABLED
    return observing


def on_idle(observing, idle_s):
    if observing:
        obs.observe("fake.idle_s", idle_s)
