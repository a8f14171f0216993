"""Video substrate: encoding ladder, VBR encoder model, and SSIM quality model.

Puffer's back end (§3.1) decodes six over-the-air TV channels and encodes
each 2.002-second chunk into ten H.264 versions (240p/CRF 26 ≈ 200 kbps up to
1080p/CRF 20 ≈ 5,500 kbps), then computes each encoded chunk's SSIM against
the canonical source. This package replaces the antenna + libx264 + ffmpeg
pipeline with a stochastic model that reproduces the properties ABR
algorithms actually observe:

* chunk sizes vary widely within a stream under VBR encoding (Fig. 3a);
* picture quality (SSIM) varies chunk-by-chunk as well (Fig. 3b);
* the bitrate/quality relationship differs per chunk, so maximizing bitrate
  is not the same as maximizing SSIM (Fig. 4).
"""
