"""Free operated groups, free differential groups and free Rota-Baxter
groups on explicit words, together with a finite-group operator laboratory
(law checking, brute-force enumeration, weight conversion) and evaluators
realizing each free object's universal property.
"""

from . import differential, finite, groups, operated, rota_baxter, words
from .words import Atom, Word, WordSyntaxError, format_word, gen, parse_word

__all__ = [
    "Atom",
    "Word",
    "WordSyntaxError",
    "differential",
    "finite",
    "format_word",
    "gen",
    "groups",
    "operated",
    "parse_word",
    "rota_baxter",
    "words",
]

__version__ = "0.1.0"
