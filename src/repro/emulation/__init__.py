"""Emulation environment (mahimahi + FCC traces), for the Fig. 11 study."""
