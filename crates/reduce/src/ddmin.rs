//! Minimizing delta debugging (ddmin) over an arbitrary item list.
//!
//! The classic Zeller–Hildebrandt algorithm: split the list into `n`
//! chunks; if any chunk alone still satisfies the predicate, recurse on
//! it; otherwise if any complement does, recurse on the complement;
//! otherwise double the granularity, until single-item resolution. The
//! result is 1-minimal *with respect to chunk removal* — no single
//! remaining item can be removed without losing the property.
//!
//! The predicate is handed whole candidate slices and is free to reject
//! for any reason (oracle failure, scope errors, exhausted budget), which
//! is how the reducer's crate-internal `Shrinker` plugs in.

/// Minimizes `items` under `test`, assuming `test(&items)` already holds.
/// Returns a subsequence (order preserved) on which `test` still holds.
///
/// `test(&[])` is tried first — the empty list is the global minimum.
pub fn ddmin<T: Clone>(items: Vec<T>, test: &mut impl FnMut(&[T]) -> bool) -> Vec<T> {
    if items.is_empty() {
        return items;
    }
    if test(&[]) {
        return Vec::new();
    }
    let mut items = items;
    let mut n = 2usize.min(items.len());
    while items.len() >= 2 {
        let chunks: Vec<(usize, usize)> = (0..n)
            .map(|i| (items.len() * i / n, items.len() * (i + 1) / n))
            .filter(|(s, e)| s < e)
            .collect();
        let mut reduced = false;
        // Reduce to a single chunk.
        for &(s, e) in &chunks {
            if e - s == items.len() {
                continue;
            }
            let subset: Vec<T> = items[s..e].to_vec();
            if test(&subset) {
                items = subset;
                n = 2;
                reduced = true;
                break;
            }
        }
        if reduced {
            continue;
        }
        // Reduce to a complement (skipped at n == 2, where complements
        // coincide with the chunks just tried).
        if n > 2 {
            for &(s, e) in &chunks {
                let complement: Vec<T> = items[..s]
                    .iter()
                    .chain(items[e..].iter())
                    .cloned()
                    .collect();
                if test(&complement) {
                    items = complement;
                    n = (n - 1).max(2);
                    reduced = true;
                    break;
                }
            }
        }
        if !reduced {
            if n >= items.len() {
                break;
            }
            n = (2 * n).min(items.len());
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_a_single_needle() {
        let items: Vec<u32> = (0..64).collect();
        let mut calls = 0;
        let out = ddmin(items, &mut |s| {
            calls += 1;
            s.contains(&37)
        });
        assert_eq!(out, vec![37]);
        assert!(calls < 64, "binary descent beats linear scan ({calls})");
    }

    #[test]
    fn keeps_a_scattered_pair() {
        let items: Vec<u32> = (0..32).collect();
        let out = ddmin(items, &mut |s| s.contains(&3) && s.contains(&29));
        assert_eq!(out, vec![3, 29]);
    }

    #[test]
    fn empty_predicate_collapses_to_nothing() {
        let out = ddmin(vec![1, 2, 3], &mut |_| true);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_order() {
        let items: Vec<u32> = (0..16).collect();
        let out = ddmin(items, &mut |s| [2u32, 7, 11].iter().all(|x| s.contains(x)));
        assert_eq!(out, vec![2, 7, 11]);
    }

    #[test]
    fn all_items_needed_keeps_everything() {
        let items = vec![1, 2, 3, 4, 5];
        let out = ddmin(items.clone(), &mut |s| s.len() == items.len());
        assert_eq!(out, items);
    }
}
