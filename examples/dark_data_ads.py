"""Classified ads: structure a messy ad corpus (paper Sec 6.4, neutralized).

Demonstrates three extraction regimes side by side on rental-listing ads:

* probabilistic price extraction (distractor numbers make this genuinely
  ambiguous -- deposits, square footage);
* probabilistic location extraction (city gazetteer candidates);
* deterministic regex phone extraction -- the paper's one case where
  deterministic rules win ("phone numbers and email addresses");

then joins forum posts back to ads through shared phone numbers, the
ad<->forum linkage the paper uses for its analyses.  It ends by asserting
what it printed: price and location F1 of at least 0.9, a perfect regex
phone extractor, and every forum post joined to an ad.

Run:  python examples/dark_data_ads.py
"""

from repro.apps import ads
from repro.corpus import ads as ads_corpus
from repro.inference import LearningOptions


def main():
    corpus = ads_corpus.generate(ads_corpus.AdsConfig(num_ads=20,
                                                      forum_posts_per_ad=0.8),
                                 seed=5)
    num_forum = sum(1 for d in corpus.documents
                    if d.doc_id.startswith("forum"))
    print(f"corpus: {corpus.num_documents - num_forum} ads + "
          f"{num_forum} forum posts")
    print("\nsample ad text:")
    print(f"  {corpus.documents[0].content!r}")

    app = ads.build(corpus, seed=0)
    result = app.run(threshold=0.8, holdout_fraction=0.15,
                     learning=LearningOptions(epochs=60, seed=0),
                     num_samples=250, burn_in=40)

    print("\nstructured ad database (probabilistic price + location, "
          "regex phone):")
    prices = dict(result.output_tuples("AdPrice"))
    locations = dict(result.output_tuples("AdLocation"))
    phones = dict(ads.phone_predictions(corpus))
    for ad_id in sorted(phones)[:10]:
        print(f"  {ad_id}: price=${prices.get(ad_id, '?'):>5} "
              f"location={locations.get(ad_id, '?'):<12} "
              f"phone={phones[ad_id]}")

    price = ads.evaluate_price(app, result, corpus)
    location = ads.evaluate_location(app, result, corpus)
    phone = ads.evaluate_phone(corpus)
    print("\nquality:")
    print(f"  price    {price}")
    print(f"  location {location}")
    print(f"  phone    {phone}  (deterministic regex)")

    links = sorted(ads.forum_links(corpus))
    print(f"\nforum posts joined to ads via shared phone numbers "
          f"({len(links)} links):")
    for ad_id, forum_id in links[:8]:
        print(f"  {forum_id} -> {ad_id}")

    # what the run above printed, checked
    assert price.f1 >= 0.9 and location.f1 >= 0.9, (price, location)
    assert phone.precision == phone.recall == 1.0, phone
    assert len({forum_id for _, forum_id in links}) == num_forum, links


if __name__ == "__main__":
    main()
