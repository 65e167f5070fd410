"""Tree-like resolution refutations described by circuits, with
resolution-checkable correctness certificates and translations from
extended resolution.

Modules:
    formulas     clauses, clause sets, DIMACS, brute-force models
    circuits     extension-gate circuits, their clauses and renamed copies
    proofs       resolution and extended-resolution proof objects
    prover       decision-tree search and tree-to-proof extraction
    encoding     decision trees as circuits; leaf-clause decoding
    correctness  clause sets asserting a described refutation works
    implicit     the certified object: verify, synthesize, store
    translate    grafting and its bridge, truth definition, search transfer
    tableau      machine-run grids: clauses, verification, grafting
    families     small fixture generators used by tests and benchmarks
"""

__version__ = "0.1.0"
