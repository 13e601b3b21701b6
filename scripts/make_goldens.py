"""Regenerate the derived golden files (phi counts, b_n, known omegas).

table1.json is never written by this script: it is the externally published
table, and the whole point of keeping it in the repository is regression
safety independent of recomputation.  This script refuses to continue if the
computed census polynomials disagree with it, and it writes b_rationals.json
only when the b_n built by the census recurrence equal the label sums they
are defined by.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from glcensus.census import a_polynomial, b_coefficient, class_sum, phi_count
from glcensus.clique import compute_omega
from glcensus.exactalg import poly_from_json, rf_to_json

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "src" / "glcensus" / "goldens"


def main() -> None:
    table1 = json.loads((GOLDEN_DIR / "table1.json").read_text())
    for key, coeffs in table1.items():
        if a_polynomial(int(key)) != poly_from_json(coeffs):
            raise SystemExit(f"computed census polynomial for n={key} disagrees with table1.json")
    print("table1.json agrees with the computed census")

    phi = {str(n): phi_count(n) for n in range(13)}
    (GOLDEN_DIR / "phi_counts.json").write_text(json.dumps(phi, indent=2) + "\n")
    print("wrote phi_counts.json")

    for n in range(9):
        if class_sum(n) != b_coefficient(n):
            raise SystemExit(f"b_{n} from the class sum disagrees with the census recurrence")
    b = {str(n): rf_to_json(b_coefficient(n)) for n in range(9)}
    (GOLDEN_DIR / "b_rationals.json").write_text(json.dumps(b, indent=2) + "\n")
    print("wrote b_rationals.json")

    omegas = {}
    for n, q in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]:
        result, _ = compute_omega(n, q)
        if not result.optimal:
            raise SystemExit(f"omega(GL_{n}({q})) did not certify; refusing to freeze")
        omegas[f"{n},{q}"] = result.size
        print(f"  omega(GL_{n}({q})) = {result.size} (certified)")
    (GOLDEN_DIR / "omega_known.json").write_text(json.dumps(omegas, indent=2) + "\n")
    print("wrote omega_known.json")


if __name__ == "__main__":
    main()
