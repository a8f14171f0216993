"""Statistical analysis: bootstrap CIs, weighted errors, summaries, power.

Implements the paper's uncertainty machinery (§3.4): bootstrap confidence
intervals on rebuffering ratio, duration-weighted standard errors on SSIM,
CCDFs of watch time, and the detectability analysis behind "it takes about
2 stream-years of data to reliably distinguish two ABR schemes whose innate
'true' performance differs by 15%".
"""
