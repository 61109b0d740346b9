"""Pick a per-document expert from three models' outputs.

Score-based selection min-max normalizes each metric across models (per
document), weights, averages, and takes the argmax. Length-based selection
(preset des5) prefers the first ranked model inside the 100-180 word
window, then the shortest text of at least 70 words.
"""

from dischargekit import (
    LengthSelectConfig,
    PRESETS,
    ScoreTable,
    TargetKind,
    select_by_length,
    select_experts,
)

DOCS = ["enc01", "enc02", "enc03"]
MODELS = ["alpha", "beta", "gamma"]

# Pre-calculated scores per (document, model): medcon/meteor computed
# against the whole note, cli reference-free.
RAW = {
    ("enc01", "alpha"): {"medcon": 0.42, "meteor": 0.31, "cli": 11.2},
    ("enc01", "beta"): {"medcon": 0.38, "meteor": 0.36, "cli": 9.8},
    ("enc01", "gamma"): {"medcon": 0.21, "meteor": 0.18, "cli": 12.4},
    ("enc02", "alpha"): {"medcon": 0.30, "meteor": 0.22, "cli": 10.1},
    ("enc02", "beta"): {"medcon": 0.29, "meteor": 0.21, "cli": 13.0},
    ("enc02", "gamma"): {"medcon": 0.44, "meteor": 0.35, "cli": 8.9},
    ("enc03", "alpha"): {"medcon": 0.35, "meteor": 0.40, "cli": 9.0},
    ("enc03", "beta"): {"medcon": 0.33, "meteor": 0.12, "cli": 10.5},
    ("enc03", "gamma"): {"medcon": 0.36, "meteor": 0.39, "cli": 9.1},
}

rows = [
    (doc, model, "di", metric, value)
    for (doc, model), metrics in RAW.items()
    for metric, value in metrics.items()
]
table = ScoreTable.from_rows(rows, TargetKind.DI, documents=DOCS, models=MODELS)

for preset in ("des1", "des2"):
    result = select_experts(table, PRESETS[preset], TargetKind.DI)
    print(f"{preset}: ", {s.hadm_id: s.model_id for s in result.selections})
    print("  tally:", result.tally)

# Length-window selection needs only word counts and a model ranking.
word_counts = {"alpha": (220, 150, 60), "beta": (130, 95, 55), "gamma": (250, 300, 40)}
counts = {(doc, model): n[i] for model, n in word_counts.items() for i, doc in enumerate(DOCS)}
cfg = LengthSelectConfig(model_ranking=("alpha", "beta", "gamma"))
result = select_by_length(counts, cfg, TargetKind.DI)
print("des5:", {s.hadm_id: (s.model_id, s.basis) for s in result.selections})
