"""Tests of run.py's failure accounting and watchdog.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import os
import sys
import tempfile
import time
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import run  # noqa: E402


def alive(pid):
    """False once `pid` is gone or a zombie (killed, not yet reaped)."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class AccountTest(unittest.TestCase):
    def test_clean_run(self):
        child = {"correct": True, "attempted": 1000, "failed": 0}
        self.assertEqual(run.account(child, False, ("report", 1000)), (True, 1000, 0))

    def test_refused_or_lost_transactions_fail_the_run(self):
        child = {"correct": True, "attempted": 1000, "failed": 3}
        self.assertEqual(run.account(child, False, ("report", 1000)), (False, 1000, 3))

    def test_failed_check_fails_the_run(self):
        child = {"correct": False, "attempted": 1000, "failed": 0}
        self.assertEqual(run.account(child, False, ("report", 1000)), (False, 1000, 0))

    def test_killed_run_fails_everything_it_attempted(self):
        self.assertEqual(run.account(None, True, ("measure:speculation", 5000)),
                         (False, 5000, 5000))

    def test_killed_before_any_submission_still_counts_one(self):
        self.assertEqual(run.account(None, True, ("start", 0)), (False, 1, 1))

    def test_crash_without_result_counts_like_a_kill(self):
        self.assertEqual(run.account(None, False, ("verify:occ", 70)), (False, 70, 70))


class SelectMetricsTest(unittest.TestCase):
    def test_declared_metrics_only_and_missing_reported(self):
        child = {"a": {"value": 1.5, "unit": "s"}, "extra": {"value": 2, "unit": "us"}}
        declared = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "us"}]
        chosen, missing = run.select_metrics(child, declared)
        self.assertEqual(chosen, {"a": {"value": 1.5, "unit": "s"}})
        self.assertEqual(missing, ["b"])


class WatchdogTest(unittest.TestCase):
    def test_hung_child_is_killed_with_its_group_and_last_phase_read(self):
        with tempfile.TemporaryDirectory() as d:
            phase = os.path.join(d, "phase")
            pidfile = os.path.join(d, "grandchild")
            # The child writes a phase, starts a grandchild in its group and
            # hangs; the watchdog must kill both.
            script = (
                "import subprocess, sys, time\n"
                "open(%r, 'w').write('measure:speculation 1234\\n')\n"
                "g = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
                "open(%r, 'w').write(str(g.pid))\n"
                "time.sleep(60)\n" % (phase, pidfile))
            t0 = time.monotonic()
            code, _, killed, last = run.run_child([sys.executable, "-c", script], 2.0, phase)
            self.assertTrue(killed)
            self.assertNotEqual(code, 0)
            self.assertLess(time.monotonic() - t0, 30)
            self.assertEqual(last, ("measure:speculation", 1234))
            self.assertEqual(run.account(None, killed, last), (False, 1234, 1234))
            with open(pidfile) as f:
                grandchild = int(f.read())
            for _ in range(100):
                if not alive(grandchild):
                    break
                time.sleep(0.05)
            else:
                self.fail("grandchild survived the watchdog")

    def test_finished_child_is_not_killed(self):
        code, out, killed, last = run.run_child([sys.executable, "-c", "print('ok')"], 30.0,
                                                "/nonexistent/phase")
        self.assertFalse(killed)
        self.assertEqual((code, out.strip(), last), (0, "ok", ("start", 0)))


if __name__ == "__main__":
    unittest.main()
