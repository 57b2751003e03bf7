"""Attack campaign against the synthetic servers (Figure 7, small run).

Run:  python examples/server_campaign.py [attacks-per-server]

Attacks three of the paper's ten servers with independent random
single-word memory tamperings and reports, per server: how many
tamperings changed control flow, and how many the IPDS detected.
Use ``python -m repro.reporting fig7`` for the full ten-server version.
"""

import sys

from repro.attacks import run_campaign


def main() -> None:
    attacks = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    print(f"{attacks} independent attacks per server\n")
    print(f"{'server':10s} {'vuln':4s} {'changed':>8s} {'detected':>9s} "
          f"{'det/changed':>12s}")
    summary = run_campaign(["telnetd", "wu-ftpd", "sendmail"], attacks)
    for result in summary.results:
        print(
            f"{result.workload:10s} {result.vuln_kind:4s} "
            f"{result.pct_changed:7.1f}% {result.pct_detected:8.1f}% "
            f"{result.pct_detected_of_changed:11.1f}%"
        )
    print("\nevery campaign also re-validates zero false positives on the")
    print("clean run of each attack (it raises if an alarm fires there).")


if __name__ == "__main__":
    main()
