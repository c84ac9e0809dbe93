"""Why two backends: the cost split on random Clifford circuits.

The dense backend touches 2^n amplitudes per gate, so time roughly
doubles per added qubit.  The tableau backend updates 2n packed
binary rows, polynomial in n — hundreds of qubits stay cheap.
"""

from qsim import bench_scaling, dispatch_run, random_clifford_circuit
import time


def show(report):
    print(f"  {'n':>5} {'depth':>6} {'seconds':>10}")
    for row in report.rows:
        print(f"  {row.n:>5} {row.depth:>6} {row.seconds:>10.5f}")
    print(f"  growth descriptor: {report.growth:.3f}\n")


def main():
    print("dense backend, depth 32, n = 14..18 (log2 time ratio per qubit):")
    show(bench_scaling("sv", range(14, 19), depth=32, shots=4, seed=0))

    print("tableau backend, depth = 2n, n = 50..800 (log-log slope):")
    show(bench_scaling("stab", [50, 100, 200, 400, 800], depth=100,
                       shots=1, seed=0, depth_scale="linear"))

    big = random_clifford_circuit(500, 1000, seed=0)
    t0 = time.perf_counter()
    dispatch_run(big, 1, seed=0, backend="stab")
    print(f"tableau, n=500 depth=1000: {time.perf_counter() - t0:.3f}s")
    print("(the dense backend could not even allocate that register)")


if __name__ == "__main__":
    main()
