"""Golden values for the §5.2 overhead breakdown (``repro.bench.breakdown``).

The waterfall is the paper's account of where a DCGN send's
microseconds go, so its stage times are pinned bit for bit: any change
to how the stages are observed must reproduce exactly these floats.
"""

from repro.bench.breakdown import overhead_breakdown, send_lifecycle

#: ``send_lifecycle`` results on the exact backend (seconds).
GOLDEN = {
    ("cpu", 0): {
        "send": {
            "issued": 0.0,
            "enqueued": 1.9e-06,
            "picked": 1.922618492357483e-05,
            "completed": 2.1087489271400917e-05,
            "returned": 2.1899999999999997e-05,
        },
        "recv": {
            "issued": 0.0,
            "enqueued": 1.9e-06,
            "picked": 1.182539587499226e-05,
            "completed": 4.1425395874992256e-05,
            "returned": 4.1899999999999995e-05,
        },
    },
    ("gpu", 0): {
        "send": {
            "posted": 1.2e-05,
            "harvested": 0.00035063990988756154,
            "enqueued": 0.00035103990988756155,
            "picked": 0.0003792261849235748,
            "completed": 0.00038108748927140085,
            "written_back": 0.00040204257655422827,
        },
        "recv": {
            "posted": 1.2e-05,
            "harvested": 0.0005333853476450612,
            "enqueued": 0.0005337853476450612,
            "picked": 0.0005518253958749922,
            "completed": 0.0005518253958749922,
            "written_back": 0.000567828062541659,
        },
    },
    ("gpu", 1024): {
        "send": {
            "posted": 1.2e-05,
            "harvested": 0.00035098124322089486,
            "enqueued": 0.00035138124322089487,
            "picked": 0.0003792261849235748,
            "completed": 0.00038378357622792254,
            "written_back": 0.0004023839098875616,
        },
        "recv": {
            "posted": 1.2e-05,
            "harvested": 0.0005333853476450612,
            "enqueued": 0.0005337853476450612,
            "picked": 0.0005518253958749922,
            "completed": 0.0005524911101607065,
            "written_back": 0.0005828351101607066,
        },
    },
}

#: Every row of the rendered waterfall table.
GOLDEN_ROWS = [
    ["CPU send", "request bookkeeping + queue push", "1.9"],
    ["CPU send", "comm-thread sleep-poll wait", "17.3"],
    ["CPU send", "matching + MPI send", "1.9"],
    ["CPU send", "completion sleep-poll notice", "0.8"],
    ["CPU send", "TOTAL", "21.9"],
    ["GPU send", "mailbox poll wait (PCIe probe cadence)", "338.6"],
    ["GPU send", "descriptor+payload PCIe read, relay", "0.4"],
    ["GPU send", "comm-thread sleep-poll wait", "28.2"],
    ["GPU send", "matching + MPI send", "1.9"],
    ["GPU send", "completion signal + PCIe flag write", "21.0"],
    ["GPU send", "TOTAL", "390.0"],
]


class TestSendLifecycleGolden:
    def test_cpu_send_recv(self):
        assert send_lifecycle("cpu") == GOLDEN[("cpu", 0)]

    def test_gpu_send_recv(self):
        assert send_lifecycle("gpu") == GOLDEN[("gpu", 0)]

    def test_gpu_send_recv_with_payload(self):
        assert send_lifecycle("gpu", nbytes=1024) == GOLDEN[("gpu", 1024)]


class TestOverheadBreakdownGolden:
    def test_every_row(self):
        assert overhead_breakdown().rows == GOLDEN_ROWS
