//! The three attack scorers of Algorithm 2: `Jac`, `NN`, `NN-single`.

use std::collections::HashMap;

use olive_nn::zoo::attacker_nn;
use olive_nn::Sgd;
use olive_tee::UserId;

/// Observed per-user feature sets, per round (`index[i, t]`).
#[derive(Clone, Debug, Default)]
pub struct ObservationLog {
    /// Feature dimension (model dim `d` or cacheline count).
    pub feature_dim: usize,
    /// One map per round: participant → sorted feature ids.
    pub per_round: Vec<HashMap<UserId, Vec<u32>>>,
}

impl ObservationLog {
    /// Rounds the given user participated in.
    pub fn rounds_of(&self, user: UserId) -> Vec<usize> {
        (0..self.per_round.len()).filter(|&t| self.per_round[t].contains_key(&user)).collect()
    }

    /// All users that participated in at least one round.
    pub fn participants(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> =
            self.per_round.iter().flat_map(|m| m.keys().copied()).collect();
        users.sort_unstable();
        users.dedup();
        users
    }
}

/// Teacher feature sets (`teacher[l, t]`).
#[derive(Clone, Debug, Default)]
pub struct TeacherLog {
    /// Feature dimension (must match the observations).
    pub feature_dim: usize,
    /// `per_round[t][l]` = sorted feature ids for label `l` at round `t`.
    pub per_round: Vec<Vec<Vec<u32>>>,
}

impl TeacherLog {
    /// Number of labels |L|.
    pub fn num_labels(&self) -> usize {
        self.per_round.first().map(|r| r.len()).unwrap_or(0)
    }
}

/// Hyperparameters of the attacker's MLP (Table 4).
#[derive(Clone, Copy, Debug)]
pub struct NnParams {
    /// Hidden width (paper: 1000 for NN, 2000 for NN-single).
    pub hidden: usize,
    /// Training epochs over the |L| teacher samples.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
}

impl Default for NnParams {
    fn default() -> Self {
        NnParams { hidden: 128, epochs: 150, lr: 0.3 }
    }
}

/// Scoring method.
#[derive(Clone, Copy, Debug)]
pub enum AttackMethod {
    /// Jaccard similarity between union index sets (Algorithm 2 line 17).
    Jaccard,
    /// One classifier per round; scores averaged (line 19–21).
    Nn(NnParams),
    /// One classifier over rounds concatenated (lines 22–25).
    NnSingle(NnParams),
}

fn multi_hot(features: &[u32], dim: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; dim];
    for &f in features {
        if (f as usize) < dim {
            v[f as usize] = 1.0;
        }
    }
    v
}

fn union(sets: impl IntoIterator<Item = Vec<u32>>) -> Vec<u32> {
    let mut all: Vec<u32> = sets.into_iter().flatten().collect();
    all.sort_unstable();
    all.dedup();
    all
}

/// |a ∩ b| / |a ∪ b| over sorted distinct slices.
pub fn jaccard(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter as f64 / (a.len() + b.len() - inter) as f64
}

/// Scores every participant against every label. Returns
/// `user → per-label scores` (higher = more likely in the training data).
pub fn score_all_users(
    method: AttackMethod,
    obs: &ObservationLog,
    teacher: &TeacherLog,
    seed: u64,
) -> HashMap<UserId, Vec<f64>> {
    assert_eq!(obs.feature_dim, teacher.feature_dim, "feature spaces must match");
    assert_eq!(obs.per_round.len(), teacher.per_round.len(), "round counts must match");
    let labels = teacher.num_labels();
    let users = obs.participants();
    let mut out: HashMap<UserId, Vec<f64>> = HashMap::new();
    match method {
        AttackMethod::Jaccard => {
            for &user in &users {
                let rounds = obs.rounds_of(user);
                let observed = union(rounds.iter().map(|&t| obs.per_round[t][&user].clone()));
                let scores = (0..labels)
                    .map(|l| {
                        let teach = union(rounds.iter().map(|&t| teacher.per_round[t][l].clone()));
                        jaccard(&observed, &teach)
                    })
                    .collect();
                out.insert(user, scores);
            }
        }
        AttackMethod::Nn(params) => {
            let dim = obs.feature_dim;
            // Per-round models trained once, then applied to all users.
            let mut round_models = Vec::with_capacity(teacher.per_round.len());
            for (t, teach_t) in teacher.per_round.iter().enumerate() {
                let mut model = attacker_nn(dim, params.hidden, labels, seed ^ (t as u64) << 8);
                let mut opt = Sgd::new(params.lr, 0.9, model.param_count());
                let mut xs = Vec::with_capacity(labels * dim);
                let mut ys = Vec::with_capacity(labels);
                for (l, feats) in teach_t.iter().enumerate() {
                    xs.extend_from_slice(&multi_hot(feats, dim));
                    ys.push(l);
                }
                for _ in 0..params.epochs {
                    model.train_batch(&xs, &ys);
                    opt.step(&mut model);
                }
                round_models.push(model);
            }
            for &user in &users {
                let mut scores = vec![0.0f64; labels];
                let rounds = obs.rounds_of(user);
                for &t in &rounds {
                    let x = multi_hot(&obs.per_round[t][&user], dim);
                    let proba = round_models[t].predict_proba(&x, 1);
                    for (s, &p) in scores.iter_mut().zip(proba.iter()) {
                        *s += p as f64;
                    }
                }
                for s in &mut scores {
                    *s /= rounds.len().max(1) as f64;
                }
                out.insert(user, scores);
            }
        }
        AttackMethod::NnSingle(params) => {
            let t_rounds = teacher.per_round.len();
            let dim = obs.feature_dim * t_rounds;
            let mut model = attacker_nn(dim, params.hidden, labels, seed ^ 0x5176);
            let mut opt = Sgd::new(params.lr, 0.9, model.param_count());
            let mut xs = Vec::with_capacity(labels * dim);
            let mut ys = Vec::with_capacity(labels);
            for l in 0..labels {
                let mut row = vec![0.0f32; dim];
                for t in 0..t_rounds {
                    let block = multi_hot(&teacher.per_round[t][l], obs.feature_dim);
                    row[t * obs.feature_dim..(t + 1) * obs.feature_dim].copy_from_slice(&block);
                }
                xs.extend_from_slice(&row);
                ys.push(l);
            }
            for _ in 0..params.epochs {
                model.train_batch(&xs, &ys);
                opt.step(&mut model);
            }
            for &user in &users {
                // Non-participated rounds stay zero (the zeroization the
                // paper notes may cost NN-single some accuracy).
                let mut row = vec![0.0f32; dim];
                for &t in &obs.rounds_of(user) {
                    let block = multi_hot(&obs.per_round[t][&user], obs.feature_dim);
                    row[t * obs.feature_dim..(t + 1) * obs.feature_dim].copy_from_slice(&block);
                }
                let proba = model.predict_proba(&row, 1);
                out.insert(user, proba.iter().map(|&p| p as f64).collect());
            }
        }
    }
    out
}

/// Scores one user (thin wrapper over [`score_all_users`] for tests).
pub fn score_user(
    method: AttackMethod,
    obs: &ObservationLog,
    teacher: &TeacherLog,
    user: UserId,
    seed: u64,
) -> Vec<f64> {
    score_all_users(method, obs, teacher, seed)
        .remove(&user)
        .expect("user did not participate in any observed round")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_logs(labels: usize, dim: usize) -> (ObservationLog, TeacherLog) {
        // Label l "owns" feature block [l*8, l*8+8); teacher knows it; each
        // user u holds labels {u % labels} and observes that block.
        let rounds = 2;
        let mut obs = ObservationLog { feature_dim: dim, per_round: vec![] };
        let mut teach = TeacherLog { feature_dim: dim, per_round: vec![] };
        for t in 0..rounds {
            let mut m = HashMap::new();
            for u in 0..6u32 {
                let l = (u as usize) % labels;
                let feats: Vec<u32> =
                    (0..8).map(|j| (l * 8 + j) as u32).chain([(t as u32) + 60]).collect();
                m.insert(u, feats);
            }
            obs.per_round.push(m);
            teach
                .per_round
                .push((0..labels).map(|l| (0..8).map(|j| (l * 8 + j) as u32).collect()).collect());
        }
        (obs, teach)
    }

    #[test]
    fn jaccard_math() {
        assert_eq!(jaccard(&[1, 2, 3], &[2, 3, 4]), 0.5);
        assert_eq!(jaccard(&[], &[]), 0.0);
        assert_eq!(jaccard(&[1], &[1]), 1.0);
        assert_eq!(jaccard(&[1], &[2]), 0.0);
    }

    #[test]
    fn jaccard_attack_recovers_planted_labels() {
        let (obs, teach) = synthetic_logs(4, 64);
        let scores = score_all_users(AttackMethod::Jaccard, &obs, &teach, 1);
        for u in 0..6u32 {
            let s = &scores[&u];
            let best = s.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
            assert_eq!(best, (u as usize) % 4, "user {u}: {s:?}");
        }
    }

    #[test]
    fn nn_attack_recovers_planted_labels() {
        let (obs, teach) = synthetic_logs(4, 64);
        let params = NnParams { hidden: 32, epochs: 120, lr: 0.3 };
        let scores = score_all_users(AttackMethod::Nn(params), &obs, &teach, 2);
        for u in 0..6u32 {
            let s = &scores[&u];
            let best = s.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
            assert_eq!(best, (u as usize) % 4, "user {u}: {s:?}");
        }
    }

    #[test]
    fn nn_single_attack_recovers_planted_labels() {
        let (obs, teach) = synthetic_logs(4, 64);
        let params = NnParams { hidden: 48, epochs: 150, lr: 0.3 };
        let scores = score_all_users(AttackMethod::NnSingle(params), &obs, &teach, 3);
        let mut hits = 0;
        for u in 0..6u32 {
            let s = &scores[&u];
            let best = s.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
            hits += usize::from(best == (u as usize) % 4);
        }
        assert!(hits >= 5, "NN-single should recover most: {hits}/6");
    }

    #[test]
    fn uninformative_observations_give_uninformative_scores() {
        // Every user observes the same features → identical scores for all
        // users → no attack signal (the defended case).
        let (mut obs, teach) = synthetic_logs(4, 64);
        for m in &mut obs.per_round {
            for feats in m.values_mut() {
                *feats = vec![0, 1, 2];
            }
        }
        let scores = score_all_users(AttackMethod::Jaccard, &obs, &teach, 4);
        let first = &scores[&0];
        for u in 1..6u32 {
            assert_eq!(&scores[&u], first);
        }
    }

    #[test]
    #[should_panic(expected = "feature spaces must match")]
    fn mismatched_dims_panic() {
        let (obs, mut teach) = synthetic_logs(2, 64);
        teach.feature_dim = 32;
        score_all_users(AttackMethod::Jaccard, &obs, &teach, 0);
    }
}
