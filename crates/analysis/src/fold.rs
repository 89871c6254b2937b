//! The streaming-fold protocol every analysis implements.
//!
//! A fold consumes borrowed [`RecordRef`] rows one at a time and keeps
//! only its accumulator state — never a row copy — so a capture can be
//! analyzed while its store pages through a spill file: peak
//! memory is O(pages in flight + accumulator state), independent of trace
//! length. Feeding several folds from one cursor (as
//! [`crate::ProbeReport::new`] does) decodes each page exactly once for
//! the whole report.

use plsim_capture::RecordRef;

/// A single-pass streaming analysis: fold rows in, then finish.
///
/// Implementations copy what they need out of each row (rows are `Copy`
/// views; list payloads borrow the store's arena only for the duration of
/// `push`), so the fold itself owns no borrows into the trace.
pub trait RecordFold {
    /// The analysis result.
    type Output;

    /// Folds one record in.
    fn push(&mut self, r: RecordRef<'_>);

    /// Consumes the accumulator into the result. Output-sized work
    /// (sorting ranked peers, model fits) happens here, once.
    fn finish(self) -> Self::Output;
}

/// Drives a fold over a record cursor and returns its result.
pub fn fold_records<'a, F, I>(mut fold: F, records: I) -> F::Output
where
    F: RecordFold,
    I: IntoIterator<Item = RecordRef<'a>>,
{
    for r in records {
        fold.push(r);
    }
    fold.finish()
}
