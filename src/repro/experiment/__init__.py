"""The Puffer randomized controlled trial (§3) as a harness.

Blinded random assignment of sessions to schemes, heavy-tailed viewer
behaviour, CONSORT exclusion accounting, and the in-situ training loop that
produces Fugu's deployed predictor.
"""
