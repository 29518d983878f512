"""makan: rule-based annotation of Arabic spatial localization and direction."""

from .annotator import (
    AnnotatedDocument,
    AnnotationFormatError,
    SpatialAnnotation,
    annotate,
    read_annotations,
    write_annotations,
)
from .engine import CompiledGrammar, GrammarError, RawMatch, apply, compile
from .evaluate import EvalReport, MatchMode, error_report, f_measure, score, split
from .lexicon import LexClass, LexEntry, Lexicon, LexiconError, load, load_variant_table, seed_lexicon
from .rulepack import load_default_resources, rule_pack
from .semmap import resolve, subsumes, top_level
from .textnorm import OffsetSpan, Token, normalize, tokenize

__all__ = [
    "AnnotatedDocument",
    "AnnotationFormatError",
    "CompiledGrammar",
    "EvalReport",
    "GrammarError",
    "LexClass",
    "LexEntry",
    "Lexicon",
    "LexiconError",
    "MatchMode",
    "OffsetSpan",
    "RawMatch",
    "SpatialAnnotation",
    "Token",
    "annotate",
    "apply",
    "compile",
    "error_report",
    "f_measure",
    "load",
    "load_default_resources",
    "load_variant_table",
    "normalize",
    "read_annotations",
    "resolve",
    "rule_pack",
    "score",
    "seed_lexicon",
    "split",
    "subsumes",
    "tokenize",
    "top_level",
    "write_annotations",
]

__version__ = "0.1.0"
