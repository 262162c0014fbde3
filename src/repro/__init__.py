"""repro: a from-scratch reproduction of DeepDive (SIGMOD 2016).

"Extracting Databases from Dark Data with DeepDive" -- Zhang, Shin, Re,
Cafarella, Niu.  The package implements the full system: a relational
datastore with DRed incremental view maintenance, an NLP preprocessing
pipeline, the DDlog rule language, factor-graph grounding (incremental),
DimmWitted-style Gibbs sampling and weight learning, the developer loop
(calibration plots, error analysis), five example applications, and the
baselines the paper argues against.

Quickstart::

    from repro import DeepDive, Document

    app = DeepDive(DDLOG_PROGRAM_TEXT)
    app.register_udf("phrase", my_phrase_feature)
    app.add_extractor("PersonCandidate", extract_person_mentions)
    app.load_documents([Document("d1", "..."), ...])
    app.add_rows("Married", known_married_pairs)
    result = app.run(threshold=0.9)
    result.output_tuples("MarriedMentions")
"""

from repro.core import DeepDive, RunResult
from repro.ddlog import DDlogProgram
from repro.nlp import Document, Sentence
from repro.obs import EngineConfig

__version__ = "1.0.0"

__all__ = [
    "DDlogProgram",
    "DeepDive",
    "Document",
    "EngineConfig",
    "RunResult",
    "Sentence",
    "__version__",
]
