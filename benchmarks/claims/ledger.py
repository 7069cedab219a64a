"""The claims table: every paper claim the reproduction checks.

``MEASURES`` names what is simulated; ``CLAIMS`` gives each claim's id,
paper section, measure, paper sentence, predicate and, for a claim
expected to deviate at ``small``, the EXPERIMENTS.md heading of its
cause.  A predicate is stated at the paper's strength: a shape that
fails at that strength deviates with a cause, never with a slack
factor.  A number in a predicate is the claim's own (a paper figure, or
the reading of a word such as "several"); its reason is in a comment.

Quantities (a predicate's variables), by measure:

* ``figure5``: ``<variant>[app][nprocs]``, speedup over Table 2's time;
* ``figure6``: ``CSM|TMK[app][category]``, time as a share of the
  Cashmere run's total (``user``, ``polling``, ``write_doubling``,
  ``protocol``, ``comm_wait``);
* ``table1``: ``<variant>[operation]``, microseconds;
* ``table2``: ``seq_s[app]`` seconds and ``shared_mb[app]``;
* ``table3``: ``CSM|TMK[app][statistic]``, the driver's cells;
* ``sweep-*``: ``gain[variant]``, best over worst speedup of the sweep;
* ``policies``: ``rows``, one dict per (variant, policy) cell;
* point measures: ``<name>`` per point, holding ``time_s``,
  ``speedup``, ``network_bytes`` and every nonzero counter.
"""

from repro.config import ClusterConfig, CostModel

from benchmarks.claims import Claim, driver, point

MC2 = CostModel.second_generation()

MEASURES = {
    "figure5": driver("figure5"),  # first: later measures reuse its points
    "figure6": driver("figure6"),
    "table1": driver("table1"),
    "table2": driver("table2"),
    "table3": driver("table3"),
    "sweep-bandwidth": driver("sweep", knob="bandwidth"),
    "sweep-latency": driver("sweep", knob="latency"),
    # irreg at 8p over rdma, on the invalidate-based protocols.
    "policies": driver("policies", variants=("hlrc_poll", "tmk_mc_poll")),
    "exclusive-mode": {"on": point("sor", "csm_poll", 8),
                       "off": point("sor", "csm_poll", 8, exclusive_mode=False)},
    "first-touch": {"ft": point("sor", "csm_poll", 8),
                    "rr": point("sor", "csm_poll", 8, homing="round-robin")},
    "weak-state": {"modern": point("sor", "csm_poll", 8),
                   "weak": point("sor", "csm_poll", 8, weak_state=True)},
    # Barnes is the most fetch-heavy application.
    "remote-reads": {"poll": point("barnes", "csm_poll", 16),
                     "pp": point("barnes", "csm_pp", 16),
                     "rr": point("barnes", "csm_poll", 16, remote_reads=True)},
    "mc2": {"csm_mc1": point("sor", "csm_poll", 16),
            "tmk_mc1": point("sor", "tmk_mc_poll", 16),
            "csm_mc2": point("sor", "csm_poll", 16, costs=MC2),
            "tmk_mc2": point("sor", "tmk_mc_poll", 16, costs=MC2)},
    "warm-start": {"warm_csm": point("sor", "csm_poll", 16),
                   "cold_csm": point("sor", "csm_poll", 16, warm_start=False),
                   "warm_tmk": point("sor", "tmk_mc_poll", 16),
                   "cold_tmk": point("sor", "tmk_mc_poll", 16, warm_start=False)},
    "write-doubling": {
        f"{app}_{name}": point(app, variant, 1, **dummy)
        for app in ("lu", "gauss")
        for name, variant, dummy in (("csm", "csm_poll", {}), ("tmk", "tmk_mc_poll", {}),
                                     ("dummy", "csm_poll", {"write_double_dummy": True}))
    },
    # The same 16 processors as 16 one-CPU nodes or 4 four-CPU nodes.
    "clustering": {
        f"{system}_{n}x{cpus}": point("sor", variant, 16,
                                      cluster=ClusterConfig(n_nodes=n, cpus_per_node=cpus))
        for system, variant in (("csm", "csm_poll"), ("tmk", "tmk_mc_poll"))
        for n, cpus in ((16, 1), (4, 4))
    },
    **{f"hlrc-{app}": {"csm": point(app, "csm_poll", 16), "tmk": point(app, "tmk_mc_poll", 16),
                       "hlrc": point(app, "hlrc_poll", 16)}
       for app in ("barnes", "ilink")},
    "hlrc-sor": {"p8": point("sor", "hlrc_poll", 8), "p32": point("sor", "hlrc_poll", 32)},
}

#: Figure 5's variants; csm_pp gives up a CPU a node, so it stops at 24.
ALL = "(csm_pp, csm_int, csm_poll, tmk_udp_int, tmk_mc_int, tmk_mc_poll)"
ALL32 = "(csm_int, csm_poll, tmk_udp_int, tmk_mc_int, tmk_mc_poll)"
LU_GAUSS = '"TreadMarks outperforms Cashmere by significant amounts on LU and Gauss"'
DUMMY = ('"Modifying the write-doubling code ... so that it doubles all writes to a single '
         'dummy address reduces the run time to only slightly more than TreadMarks"')
POLLING = ('"Polling ... is uniformly better than fielding signals ... for larger numbers of '
           'processors" (larger: 8, 16 and 32)')
POLL_CAUSES = {"sor": "Polling vs interrupts", "water": "Polling vs interrupts", "tsp": "TSP",
               "gauss": "Polling vs interrupts", "ilink": "Polling vs interrupts"}

CLAIMS = (
    Claim("table1-csm-lock-11us", "§3, Table 1", "table1",
          "A Cashmere lock acquire costs about 11 us (paraphrase; the printed table is "
          "OCR-damaged)",
          "10 <= csm_poll['lock_acquire'] <= 12"),  # "about": to the microsecond
    Claim("table1-tmk-locks-cost-more", "§3, Table 1", "table1",
          "TreadMarks' request/response locks cost more than Cashmere's (paraphrase)",
          "tmk_mc_poll['lock_acquire'] > csm_poll['lock_acquire']"),
    # "Several times": more than 3x, here and for barriers.
    Claim("table1-udp-several-times-mc", "§3, Table 1", "table1",
          "Kernel-UDP TreadMarks operations cost several times the user-level MC ones "
          "(paraphrase)",
          "tmk_udp_int['lock_acquire'] > 3 * tmk_mc_poll['lock_acquire']"),
    Claim("table1-barriers-grow-with-p", "§3, Table 1", "table1",
          "A 16-processor barrier costs several times a 2-processor one (paraphrase)",
          f"min(v['barrier_16'] / v['barrier_2'] for v in {ALL}) > 3"),
    Claim("table1-tmk-barrier-scales-worse", "§3, Table 1", "table1",
          "TreadMarks' centralized barrier scales worse than Cashmere's tree barrier "
          "(paraphrase)",
          "tmk_mc_poll['barrier_16'] > csm_poll['barrier_16']"),
    # "About a millisecond": within 2x of 1,000 us either way.
    Claim("table1-page-transfer-near-1ms", "§3, Table 1", "table1",
          "A page transfer costs about a millisecond on every system (paraphrase)",
          f"500 < min(v['page_transfer'] for v in {ALL}) "
          f"and max(v['page_transfer'] for v in {ALL}) < 2000"),
    # 0.05 s: long enough for protocol costs to be measurable.
    Claim("table2-every-app-measurable", "§4.1, Table 2", "table2",
          "Table 2 gives every application's data set and sequential time",
          "len(seq_s) == 8 and min(seq_s.values()) > 0.05 and min(shared_mb.values()) > 0"),
    Claim("table3-paper-processor-counts", "§4.3, Table 3", "table3",
          '"... at 32 processors, except for Barnes, where the statistics presented are for '
          '16 processors"',
          "all(CSM[a]['nprocs'] == TMK[a]['nprocs'] == (16 if a == 'barnes' else 32) "
          "for a in CSM)"),
    Claim("table3-same-synchronization", "§4.3, Table 3", "table3",
          "The same programs synchronize alike; TSP's lock count varies with the schedule "
          "(paraphrase)",
          "all(CSM[a]['barriers'] == TMK[a]['barriers'] for a in CSM) "
          "and all(CSM[a]['locks'] == TMK[a]['locks'] for a in CSM if a != 'tsp')"),
    Claim("table3-system-metrics", "§4.3, Table 3", "table3",
          "Cashmere reports page transfers where TreadMarks reports messages and data "
          "(Table 3's rows)",
          "min(c['exec_seconds'] for s in (CSM, TMK) for c in s.values()) > 0 "
          "and min(c['page_transfers'] for c in CSM.values()) > 0 "
          "and min(c['messages'] for c in TMK.values()) > 0 "
          "and min(c['data_kbytes'] for c in TMK.values()) > 0"),
    # "Dwarf": an order of magnitude.
    Claim("table3-tmk-messages-dwarf", "§4.3, Table 3", "table3",
          "TreadMarks' messages dwarf Cashmere's page requests on Barnes and Ilink "
          "(paraphrase)",
          "min(TMK[a]['messages'] / CSM[a]['page_transfers'] for a in ('barnes', 'ilink')) "
          "> 10"),
    # A Cashmere page transfer moves one 8 KB page.
    Claim("table3-ilink-tmk-less-data", "§4.3, Table 3", "table3",
          "On sparse data TreadMarks' diffs move less data than whole pages (paraphrase)",
          "TMK['ilink']['data_kbytes'] < 8 * CSM['ilink']['page_transfers']"),
    Claim("fig5-gauss-tmk-ahead", "§4.3, Figure 5", "figure5",
          LU_GAUSS + " (Gauss, every count)",
          "min(tmk_mc_poll['gauss'][n] / csm_poll['gauss'][n] for n in csm_poll['gauss']) "
          "> 1"),
    Claim("fig5-lu-tmk-ahead-to-16", "§4.3, Figure 5", "figure5",
          LU_GAUSS + " (LU, 1 to 16 processors)",
          "min(tmk_mc_poll['lu'][n] / csm_poll['lu'][n] for n in (1, 2, 4, 8, 16)) > 1"),
    Claim("fig5-lu-tmk-ahead-at-32", "§4.3, Figure 5", "figure5",
          LU_GAUSS + " (LU, 32 processors)",
          "tmk_mc_poll['lu'][32] > csm_poll['lu'][32]", "LU at 32 processors"),
    Claim("fig5-barnes-csm-ahead", "§4.3, Figure 5", "figure5",
          "Cashmere is clearly ahead on Barnes's false sharing (paraphrase)",
          "min(csm_poll['barnes'][n] / tmk_mc_poll['barnes'][n] for n in (8, 16)) > 1",
          "Barnes"),
    Claim("fig5-ilink-tmk-ahead", "§4.3, Figure 5", "figure5",
          "TreadMarks beats Cashmere on Ilink's sparse data (paraphrase)",
          "min(tmk_mc_poll['ilink'][n] / csm_poll['ilink'][n] for n in (8, 16, 32)) > 1"),
    Claim("fig5-sor-em3d-tmk-ahead-at-32", "§4.3, Figure 5", "figure5",
          "TreadMarks is slightly ahead on SOR and Em3d (paraphrase)",
          "min(tmk_mc_poll[a][32] / csm_poll[a][32] for a in ('sor', 'em3d')) > 1",
          "SOR, Em3d and Water at 32 processors"),
    # "A wash": within 10 % either way.
    Claim("fig5-water-wash-at-32", "§4.3, Figure 5", "figure5",
          "Water is a wash between the two systems (paraphrase)",
          "0.9 <= csm_poll['water'][32] / tmk_mc_poll['water'][32] <= 1.1",
          "SOR, Em3d and Water at 32 processors"),
    Claim("fig5-sor-scales", "§4.3, Figure 5", "figure5",
          '"Speedups are also reasonable in SOR": both polling systems speed up at every '
          "doubling",
          "min(v['sor'][2 * n] / v['sor'][n] for v in (csm_poll, tmk_mc_poll) "
          "for n in (1, 2, 4, 8, 16)) > 1"),
    Claim("fig5-tsp-scales", "§4.3, Figure 5", "figure5",
          '"TSP displays nearly linear speedup for all our protocols": each speeds up from 8 '
          "to 32 processors",
          f"min(v['tsp'][32] / v['tsp'][8] for v in {ALL32}) > 1"),
    # "Nearly linear": at least 75 % parallel efficiency.
    Claim("fig5-tsp-near-linear", "§4.3, Figure 5", "figure5",
          '"TSP displays nearly linear speedup for all our protocols"',
          f"min(v['tsp'][n] / n for v in {ALL32} for n in (8, 16, 32)) >= 0.75", "TSP"),
    Claim("fig5-speedup-above-one", "§4.3, Figure 5", "figure5",
          "Every application speeds up under both polling systems (Figure 5's curves; Ilink "
          "is `fig5-ilink-speeds-up`)",
          "min(max(v[a].values()) for v in (csm_poll, tmk_mc_poll) for a in v "
          "if a != 'ilink') > 1"),
    Claim("fig5-ilink-speeds-up", "§4.3, Figure 5", "figure5",
          "Ilink speeds up despite its inherent serial component (Figure 5's curve)",
          "min(max(v['ilink'].values()) for v in (csm_poll, tmk_mc_poll)) > 1", "Ilink"),
    # "Usually": at more than half of the (app, count) points where
    # csm_pp runs.
    Claim("fig5-csm-pp-usually-best", "§3.2, Figure 5", "figure5",
          '"Cashmere usually performs best when an additional processor per node is '
          'dedicated to servicing remote requests"',
          "sum(csm_pp[a][n] >= max(csm_int[a][n], csm_poll[a][n]) for a in csm_pp "
          "for n in (2, 4, 8, 16)) > 4 * len(csm_pp) / 2"),
    *(
        Claim(f"fig5-{app}-poll-beats-int", "§4.3, Figure 5", "figure5", POLLING,
              f"min(p[{app!r}][n] / i[{app!r}][n] for p, i in ((csm_poll, csm_int), "
              f"(tmk_mc_poll, tmk_mc_int)) for n in (8, 16, 32)) >= 1",
              POLL_CAUSES.get(app))
        for app in ("sor", "lu", "water", "tsp", "gauss", "ilink", "em3d", "barnes")
    ),
    Claim("fig6-normalized-to-cashmere", "§4.3, Figure 6", "figure6",
          '"The breakdown is normalized with respect to total execution time for Cashmere"; '
          "every bar has user time",
          "max(abs(sum(CSM[a].values()) - 1) for a in CSM) < 1e-9 "
          "and min(bar['user'] for s in (CSM, TMK) for bar in s.values()) > 0"),
    Claim("fig6-doubling-is-cashmere-only", "§4.3, Figure 6", "figure6",
          "Write doubling is a slice of Cashmere's SOR, LU and Gauss bars and of no "
          "TreadMarks bar (paraphrase)",
          "min(CSM[a]['write_doubling'] for a in ('sor', 'lu', 'gauss')) > 0 "
          "and max(bar['write_doubling'] for bar in TMK.values()) == 0"),
    Claim("fig6-doubling-paper-share", "§4.3, Figure 6", "figure6",
          "Write doubling is 19 %, 21 % and 27 % of Cashmere's SOR, LU and Gauss bars "
          "(paraphrase)",
          "CSM['sor']['write_doubling'] >= 0.19 and CSM['lu']['write_doubling'] >= 0.21 "
          "and CSM['gauss']['write_doubling'] >= 0.27", "Write doubling at 32 processors"),
    Claim("fig6-tmk-more-protocol", "§4.3, Figure 6", "figure6",
          "TreadMarks spends more time in protocol code than Cashmere on SOR and Em3d "
          "(paraphrase)",
          "min(TMK[a]['protocol'] / CSM[a]['protocol'] for a in ('sor', 'em3d')) > 1"),
    Claim("fig6-sparse-csm-communicates-more", "§4.3, Figure 6", "figure6",
          '"A much larger amount of time spent in communication for Cashmere" on Gauss and '
          "Ilink",
          "min(CSM[a]['comm_wait'] / TMK[a]['comm_wait'] for a in ('gauss', 'ilink')) > 1"),
    Claim("sweep-bandwidth-helps-everyone", "§1, sweep", "sweep-bandwidth",
          '"The current Memory Channel has relatively modest cross-sectional bandwidth"',
          "min(gain.values()) > 1"),
    Claim("sweep-bandwidth-favours-cashmere", "§1, sweep", "sweep-bandwidth",
          '"... which limits the performance of write-through": Cashmere gains more',
          "gain['csm_poll'] > gain['tmk_mc_poll']"),
    Claim("sweep-latency-moves-both", "§1, sweep", "sweep-latency",
          "Latency moves both systems: their traffic crosses the same wire (paraphrase)",
          "min(gain.values()) > 1"),
    # Without exclusive mode every writer re-faults after every release,
    # more than doubling SOR's single-writer band faults.
    Claim("abl-exclusive-mode", "§2.1, ablation", "exclusive-mode",
          '"Pages in exclusive mode experience only the initial write fault, the minimum of '
          'possible protocol overhead"',
          "off['write_faults'] > 2 * on['write_faults'] and off['time_s'] > on['time_s']"),
    # Under the weak state SOR's private band pages re-fault at every
    # barrier.
    Claim("abl-weak-state", "§2.1, ablation", "weak-state",
          '"We have removed the weak state ... These two enhancements improve Cashmere\'s '
          'ability to efficiently handle private pages"',
          "weak['write_faults'] > 2 * modern['write_faults'] "
          "and weak['time_s'] > modern['time_s']"),
    # "Significant": round-robin homes more than double SOR's
    # write-through traffic.
    Claim("abl-first-touch", "§2.1, ablation", "first-touch",
          '"The choice of home node can have a significant impact on performance"',
          "rr['write_through_bytes'] > 2 * ft['write_through_bytes'] "
          "and rr['time_s'] > ft['time_s']"),
    Claim("abl-remote-reads", "§3.2, ablation", "remote-reads",
          '"... implying that remote-read hardware would improve performance further"',
          "rr['speedup'] > pp['speedup'] and rr['speedup'] > poll['speedup']"),
    Claim("abl-mc2", "§1 and §6, ablation", "mc2",
          '"Finer-grain DSM systems are in a position to make excellent use of" the '
          "second-generation Memory Channel",
          "csm_mc2['speedup'] / csm_mc1['speedup'] "
          "> tmk_mc2['speedup'] / tmk_mc1['speedup'] > 1"),
    # "Only slightly more": within 10 %.
    *(
        Claim(f"abl-dummy-doubling-{app}", "§4.3, ablation", "write-doubling",
              f"{DUMMY} ({app}, 1 processor)",
              f"{app}_csm['time_s'] > {app}_dummy['time_s'] > {app}_tmk['time_s'] "
              f"and {app}_dummy['time_s'] <= 1.1 * {app}_tmk['time_s']", cause)
        for app, cause in (("lu", None), ("gauss", "Gauss dummy-doubling run"))
    ),
    Claim("abl-clustering", "§3.4, ablation", "clustering",
          'TreadMarks "does not use ... intra-node sharing except message buffers", so fat '
          "nodes help Cashmere more",
          "csm_4x4['speedup'] / csm_16x1['speedup'] > tmk_4x4['speedup'] / tmk_16x1['speedup'] "
          "and csm_4x4['speedup'] / csm_16x1['speedup'] > 1"),
    Claim("method-warm-start", "methodology", "warm-start",
          "Cold data distribution is about 1 % of the paper's runs; at simulation scale it is "
          "TreadMarks' cost (methodology, not a paper claim)",
          "warm_tmk['time_s'] < cold_tmk['time_s'] and warm_tmk.get('page_fetches', 0) == 0 "
          "and 1 - warm_tmk['time_s'] / cold_tmk['time_s'] "
          "> 1 - warm_csm['time_s'] / cold_csm['time_s']"),
    Claim("ext-hlrc-barnes-messages", "§1, extension", "hlrc-barnes",
          '"We intend to study alternative fine-grain protocols": home-based LRC fetches one '
          "page from the home, not a diff from every writer",
          "hlrc['messages'] < tmk['messages'] / 2"),
    Claim("ext-hlrc-barnes-competitive", "§1, extension", "hlrc-barnes",
          "Home-based LRC is competitive on Barnes: at least the slower paper system's speedup",
          "hlrc['speedup'] >= min(csm['speedup'], tmk['speedup'])", "Home-based LRC on Barnes"),
    Claim("ext-hlrc-ilink-wire", "§1, extension", "hlrc-ilink",
          "Home-based LRC gives up TreadMarks' thin diffs on sparse data: whole pages move "
          "more bytes",
          "tmk['network_bytes'] < hlrc['network_bytes'] "
          "and tmk['network_bytes'] < csm['network_bytes']"),
    Claim("ext-hlrc-sor-scales", "§1, extension", "hlrc-sor",
          "Home-based LRC scales on SOR", "p32['speedup'] > p8['speedup'] > 1"),
    Claim("ext-policy-values-identical", "extension", "policies",
          "Sharing policies move costs, never values (docs/POLICIES.md)",
          "all(r['values_ok'] for r in rows)"),
    # 1.2x: the gate the policy layer was built to pass.
    Claim("ext-policy-fine-grain-gate", "§6, extension", "policies",
          '"Finer-grain DSM systems are in a position to make excellent use of" fast '
          "networks: 256-byte units with prefetch beat the page on false sharing",
          "max(r['speedup'] for r in rows if r['policy'] == 'block256+seq') >= 1.2"),
)
