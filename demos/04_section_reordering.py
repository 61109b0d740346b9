"""Reorder a note's sections by relevance to a target, then truncate.

Sections most similar to the target text move to the front, so a hard word
budget cuts the least relevant content. The default scorer is unigram
overlap; per-section scores from an external model can be plugged in via a
CSV file instead.
"""

from dischargekit import DischargeSummary, rank_sections, rouge_1, split_sections, truncate_words, word_count

BODY = """\
Chief Complaint:
Shortness of breath.
History of Present Illness:
Two days of cough and mild fever, worse at night, improving with rest.
Family History:
Notable for unrelated chronic conditions in distant relatives.
Physical Exam:
Breathing comfortable on room air, lungs clear, vitals stable today.
Pertinent Results:
Routine values unremarkable across the stay.
"""

REFERENCE_TARGET = "Rest at home while breathing improves and fever resolves with stable vitals."

doc = split_sections(DischargeSummary(hadm_id="enc01", full_text=BODY, body_without_targets=BODY))
print("original order: ", [s.header.rstrip(":") or "<preamble>" for s in doc.sections])

ranked = rank_sections(doc, REFERENCE_TARGET, rouge_1)
print("by relevance:   ", [(s.header.rstrip(":"), round(s.relevance, 3)) for s in ranked.sections])

budget = 30
clipped = truncate_words(ranked, budget=budget)
print(f"\nfirst {budget} words after reordering:")
print(clipped)
assert word_count(clipped) == budget
