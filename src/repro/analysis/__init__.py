"""Analysis helpers around the scenario registry.

* :mod:`sweep`   — the declarative batch driver every scenario grid runs
  through;
* :mod:`tables`  — the Fig. 2b, Fig. 3c and Fig. 1 (PCL flow) table rows
  and their fixed-width rendering;
* :mod:`figures` — the Sec. VI L2 KV-cache and Sec. VII JSRAM-residency
  studies.

Every paper figure, table and study is a registry scenario
(:mod:`repro.scenarios.registry`); nothing is re-exported here.
"""
