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

from repro.media.chunk import ChunkMenu, EncodedChunk
from repro.media.ladder import EncodingLadder, EncodingProfile, PUFFER_LADDER
from repro.media.source import Channel, SceneComplexityProcess, VideoSource
from repro.media.encoder import VbrEncoder, encode_clip
from repro.media.menus import MenuBlockSource
from repro.media.ssim import ssim_db_to_index, ssim_index_to_db

CHUNK_DURATION = 2.002
"""Video chunk length in seconds (NTSC 2.002 s, §3.1)."""

__all__ = [
    "CHUNK_DURATION",
    "EncodedChunk",
    "ChunkMenu",
    "EncodingProfile",
    "EncodingLadder",
    "PUFFER_LADDER",
    "SceneComplexityProcess",
    "Channel",
    "VideoSource",
    "VbrEncoder",
    "MenuBlockSource",
    "encode_clip",
    "ssim_index_to_db",
    "ssim_db_to_index",
]
