"""Correlate pre-calculated scores with the overall score on synthetic data.

Builds a seeded synthetic corpus, scores every candidate with the native
suite plus deterministic stand-ins for the external metrics, computes the
eight-metric overall score per (document, model), and reports the Pearson
correlation of each pre-calculated score with that overall score.
"""

from dischargekit import TargetKind, correlation_matrix, generate_synthetic_corpus
from dischargekit.scores import REFERENCE_METRICS, factuality_proxy_job, native_score_job, score_columns
from dischargekit.synthetic import synthetic_external_rows
from dischargekit.tables import ScoreTable, joined, overall_by_document

summaries, candidates = generate_synthetic_corpus(n_docs=80, n_models=3, seed=7)
targets = {s.hadm_id: s.targets for s in summaries}
pool = [c for c in candidates if c.target is TargetKind.DI]

# One job per group of native columns, all scored in one pass, each into a
# table over the pool's documents and models. The pre-calculated scores are
# computable without the gold target: readability is reference-free and
# meteor_ds uses the whole note body as reference.
jobs = [
    native_score_job(pool, references=targets, metrics=REFERENCE_METRICS),
    native_score_job(pool, metrics=("fkgl", "dcrs", "cli")),
    factuality_proxy_job(pool, summaries),
]
native, readability, meteor_ds = (ScoreTable(*columns) for columns in score_columns(jobs))
pre_calculated = joined([readability, meteor_ds])

# The overall score needs the five native reference metrics plus three
# externally supplied ones, which arrive as long-form rows as from a score
# CSV (deterministic stand-ins here).
external = synthetic_external_rows(pool, targets, summaries)
external_table = ScoreTable.from_rows(external, TargetKind.DI, native.documents, native.models)
overall = overall_by_document(joined([native, external_table]))

matrix = correlation_matrix(pre_calculated, overall)
print("pre-calculated score -> correlation with overall score")
for metric, variant, r in matrix.to_rows():
    print(f"  {metric:>10}: {r:+.3f}")
print(
    "\nNote: the synthetic generator draws candidate quality independently of"
    "\nthe note body, so these correlations sit near zero by construction;"
    "\nreal corpora show structure here."
)
