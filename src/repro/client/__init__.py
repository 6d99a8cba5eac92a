"""Client-side machinery.

Mirrors the paper's instrumented DirectShow client: datagram
reassembly (`reassembly`), a playout buffer that records per-frame
arrival and presentation timing like the paper's storage filter
(`playout`), and the renderer emulation that replays lost/late-frame
concealment by repeating frames (`renderer`, the paper's Figure 2
algorithm).
"""

from repro.client.reassembly import DatagramReassembler
from repro.client.playout import PlayoutClient, ClientRecord
from repro.client.renderer import RendererEmulation, DisplayTrace

__all__ = [
    "DatagramReassembler",
    "PlayoutClient",
    "ClientRecord",
    "RendererEmulation",
    "DisplayTrace",
]
