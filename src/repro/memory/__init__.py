"""Memory substrate: JSRAM macros, caches, cryo-DRAM, and the hierarchy model.

The paper's memory story (Sec. III "Memory Hierarchy", Sec. II-B "JSRAM"):

* **JSRAM** — Josephson SRAM with XY addressing.  The 8-JJ single-port
  (1R/1W) high-density cell backs the L1/L2 data caches; 14-JJ (2R/1W) and
  29-JJ (3R/2W) high-performance cells back register files, buffers and L1
  instruction caches.
* **Cryo-DRAM** — stock DDR/LPDDR packages operated at 77 K behind the
  4K↔77K datalink; 30 ns average access latency and 2 TB per blade.
* **Hierarchy model** — the roofline's memory side: each level has capacity,
  nominal bandwidth, access latency and a bandwidth–delay-product limit on
  in-flight data, which together produce the *effective* bandwidth used for
  kernel timing (README "Substitutions" #7).
"""

from repro.memory.jsram import (
    HD_1R1W,
    HP_2R1W,
    HP_3R2W,
    JSRAMCell,
    JSRAMDie,
    JSRAMMacro,
)
from repro.memory.dram import CryoDRAMBlock, CryoDRAMPackage
from repro.memory.cache import CacheSpec
from repro.memory.hierarchy import MemoryHierarchy, MemoryLevel

__all__ = [
    "JSRAMCell",
    "JSRAMMacro",
    "JSRAMDie",
    "HD_1R1W",
    "HP_2R1W",
    "HP_3R2W",
    "CryoDRAMPackage",
    "CryoDRAMBlock",
    "CacheSpec",
    "MemoryLevel",
    "MemoryHierarchy",
]
