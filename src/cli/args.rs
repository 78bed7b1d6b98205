//! The argument reader every verb's parser shares.

use std::str::FromStr;

/// The words of a command line after the program name, consumed left to
/// right.
pub(super) struct Args(std::vec::IntoIter<String>);

impl Args {
    pub(super) fn new<I, S>(args: I) -> Args
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Args(
            args.into_iter()
                .map(Into::into)
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    /// The next word, if any.
    pub(super) fn next(&mut self) -> Option<String> {
        self.0.next()
    }

    /// The next word, which must be there; `missing` is the message when
    /// it is not.
    pub(super) fn required(&mut self, missing: &str) -> Result<String, String> {
        self.next().ok_or_else(|| missing.to_string())
    }

    /// The value that follows `flag`, parsed as `T`.
    pub(super) fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.required(&format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("bad value `{v}` for {flag}"))
    }

    /// The count that follows `flag`, which must be at least 1.
    pub(super) fn positive(&mut self, flag: &str) -> Result<usize, String> {
        match self.value(flag)? {
            0 => Err(format!("{flag} must be at least 1")),
            n => Ok(n),
        }
    }

    /// Succeeds when every word has been consumed.
    pub(super) fn finish(&mut self) -> Result<(), String> {
        match self.next() {
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
            None => Ok(()),
        }
    }
}
