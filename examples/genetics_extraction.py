"""Medical genetics: build the (gene, phenotype) database of paper Sec 6.1.

Generates a synthetic research-literature corpus, runs the genetics
application (OMIM-style distant supervision, non-causal-context negatives),
prints the extracted aspirational database with probabilities, the Figure-5
calibration artifacts, and the error-analysis document.  It ends by
asserting what it printed: entity-level F1 of at least 0.9, a calibration
plot over the held-out variables, and an error-analysis document whose
top-weighted feature is a phrase between the two mentions.

Run:  python examples/genetics_extraction.py
"""

from repro.apps import genetics
from repro.corpus import genetics as genetics_corpus
from repro.inference import LearningOptions


def main():
    corpus = genetics_corpus.generate(
        genetics_corpus.GeneticsConfig(num_causal_pairs=25,
                                       num_comention_pairs=25), seed=7)
    print(f"corpus: {corpus.num_documents} abstracts, "
          f"{len(corpus.kb['Omim'])} OMIM supervision entries, "
          f"{len(corpus.truth['gene_phenotype'])} true gene-phenotype links")

    app = genetics.build(corpus, seed=0)
    result = app.run(threshold=0.85, holdout_fraction=0.2,
                     learning=LearningOptions(epochs=60, seed=0),
                     num_samples=300, burn_in=40)

    print("\nextracted Causes(gene, phenotype) database:")
    predictions = sorted(genetics.entity_predictions(app, result))
    for gene, phenotype in predictions:
        print(f"  Causes({gene}, {phenotype})")

    quality = genetics.evaluate(app, result, corpus)
    print(f"\nquality vs ground truth: {quality}")

    print("\nFigure-5 artifacts:")
    print(result.calibration().ascii())
    print()
    print(result.test_histogram().ascii())

    report = app.error_analysis(result, "CausesMention", _mention_gold(app, corpus))
    print()
    print(report.render())

    # what the run above printed, checked
    assert predictions and quality.f1 >= 0.9, quality
    calibration = result.calibration()
    assert calibration.bucket_counts.sum() == len(result.holdout_pairs)
    top = max(report.feature_stats, key=lambda stat: abs(stat.weight))
    assert ":between:" in top.key, top


def _mention_gold(app, corpus):
    """Gold at the mention-pair level: pairs in causal documents."""
    gold = set()
    gene_of = dict(app.db["GeneOf"].distinct_rows())
    pheno_of = dict(app.db["PhenoOf"].distinct_rows())
    truth = corpus.truth["gene_phenotype"]
    for (m1, m2) in app.db["GenePhenoCandidate"].distinct_rows():
        if (gene_of[m1], pheno_of[m2]) in truth and m1.split(":")[0].startswith("c"):
            gold.add((m1, m2))
    return gold


if __name__ == "__main__":
    main()
