"""Exact distance oracle for undirected weighted graphs under edge failures."""
from .graph import (CompositeLength, Graph, GraphError, UNREACHABLE,
                    parse_graph, tie_break_values)
from .generate import gen_gnm
from .hitset import FailureView, HitSetEngine, HitSetOutcome, QueryStats
from .oraclefile import OracleFileError, load_oracle, oracle_file_bytes, save_oracle
from .query import Oracle, QueryError, build_oracle
from .reference import CheckedEngine, GuardError, ReferenceOracle, VerifyReport, verify_instance
from .spindex import ShortestPathIndex, TieBreakError, build_index_auto
from .tables import BuildError, OracleTables, TableEntry, build_tables, constraint_holds
from .version import __version__

__all__ = [
    "CompositeLength", "Graph", "GraphError", "UNREACHABLE",
    "parse_graph", "tie_break_values",
    "gen_gnm",
    "FailureView", "HitSetEngine", "HitSetOutcome", "QueryStats",
    "OracleFileError", "load_oracle", "oracle_file_bytes", "save_oracle",
    "Oracle", "QueryError", "build_oracle",
    "CheckedEngine", "GuardError", "ReferenceOracle", "VerifyReport", "verify_instance",
    "ShortestPathIndex", "TieBreakError", "build_index_auto",
    "BuildError", "OracleTables", "TableEntry", "build_tables", "constraint_holds",
    "__version__",
]
