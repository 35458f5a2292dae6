import tracemalloc

import acceptance_report


def traced_peak(fn):
    """Run ``fn()`` under tracemalloc; return its peak traced bytes and
    ``fn``'s result."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_report.RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, passed, detail in acceptance_report.RESULTS:
        verdict = "PASS" if passed else "FAIL"
        line = f"{verdict} {criterion}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
