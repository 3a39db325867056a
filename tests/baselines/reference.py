"""Slow, obvious reference fits: the oracles for the wavefront SGD kernel.

``repro.baselines.mf.sgd_wavefront`` trains ``BiasedMF`` and ``CMF`` one
conflict-free wavefront of samples at a time. Each function here is the
one-sample-at-a-time SGD loop it replaces, run on a fresh model the same
way ``fit`` would; the tests check that both produce the same factors and
biases bit for bit.
"""

import numpy as np

from repro.baselines import source_triples, visible_target_triples


def biased_mf_fit(model, triples):
    """``BiasedMF.fit`` as a per-sample Python loop."""
    cfg = model.config
    rng = np.random.default_rng(cfg.seed)

    model.user_index = {u: k for k, u in enumerate(sorted({t[0] for t in triples}))}
    model.item_index = {i: k for k, i in enumerate(sorted({t[1] for t in triples}))}
    num_users, num_items = len(model.user_index), len(model.item_index)

    model.user_factors = rng.normal(0, cfg.init_std, (num_users, cfg.num_factors))
    model.item_factors = rng.normal(0, cfg.init_std, (num_items, cfg.num_factors))
    model.user_bias = np.zeros(num_users)
    model.item_bias = np.zeros(num_items)
    model.global_mean = float(np.mean([t[2] for t in triples]))

    encoded = np.array(
        [(model.user_index[u], model.item_index[i], r) for u, i, r in triples]
    )
    users = encoded[:, 0].astype(np.int64)
    items = encoded[:, 1].astype(np.int64)
    ratings = encoded[:, 2]

    order = np.arange(len(triples))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for idx in order:
            u, i, r = users[idx], items[idx], ratings[idx]
            pu, qi = model.user_factors[u], model.item_factors[i]
            pred = model.global_mean + pu @ qi
            if cfg.use_bias:
                pred += model.user_bias[u] + model.item_bias[i]
            err = r - pred
            if cfg.use_bias:
                model.user_bias[u] += cfg.learning_rate * (err - cfg.reg * model.user_bias[u])
                model.item_bias[i] += cfg.learning_rate * (err - cfg.reg * model.item_bias[i])
            pu_old = pu.copy()
            model.user_factors[u] += cfg.learning_rate * (err * qi - cfg.reg * pu)
            model.item_factors[i] += cfg.learning_rate * (err * pu_old - cfg.reg * qi)
    return model


def cmf_fit(model, dataset, split):
    """``CMF.fit`` as a per-sample Python loop."""
    cfg = model.config
    rng = np.random.default_rng(cfg.seed)
    src = source_triples(dataset)
    tgt = visible_target_triples(dataset, split)

    users = sorted({u for u, _, _ in src} | {u for u, _, _ in tgt})
    model.user_index = {u: k for k, u in enumerate(users)}
    items = [("s", i) for i in sorted({i for _, i, _ in src})] + [
        ("t", i) for i in sorted({i for _, i, _ in tgt})
    ]
    model.item_index = {key: k for k, key in enumerate(items)}

    model._user_factors = rng.normal(0, cfg.init_std, (len(users), cfg.num_factors))
    model._item_factors = rng.normal(0, cfg.init_std, (len(items), cfg.num_factors))
    model._user_bias = np.zeros(len(users))
    model._item_bias = np.zeros(len(items))
    model._mean["s"] = float(np.mean([r for _, _, r in src]))
    model._mean["t"] = float(np.mean([r for _, _, r in tgt]))

    rows = [
        (model.user_index[u], model.item_index[("s", i)], r, model._mean["s"], model.source_weight)
        for u, i, r in src
    ] + [
        (model.user_index[u], model.item_index[("t", i)], r, model._mean["t"], 1.0)
        for u, i, r in tgt
    ]
    encoded = np.array(rows)
    order = np.arange(len(encoded))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for idx in order:
            u, i = int(encoded[idx, 0]), int(encoded[idx, 1])
            r, mean, weight = encoded[idx, 2], encoded[idx, 3], encoded[idx, 4]
            pu, qi = model._user_factors[u], model._item_factors[i]
            pred = pu @ qi
            if model.use_bias:
                pred += mean + model._user_bias[u] + model._item_bias[i]
            err = weight * (r - pred)
            if model.use_bias:
                model._user_bias[u] += cfg.learning_rate * (err - cfg.reg * model._user_bias[u])
                model._item_bias[i] += cfg.learning_rate * (err - cfg.reg * model._item_bias[i])
            pu_old = pu.copy()
            model._user_factors[u] += cfg.learning_rate * (err * qi - cfg.reg * pu)
            model._item_factors[i] += cfg.learning_rate * (err * pu_old - cfg.reg * qi)
    return model
