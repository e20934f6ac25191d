//! Safety / liveness / waste checkers shared by tests, property tests and the
//! experiment harness.
//!
//! The correctness conditions of an (M, W)-Controller (§2.2):
//!
//! * **Safety** — the total number of granted permits is at most `M`;
//! * **Liveness** — every request is answered, and if any request is
//!   rejected, the number of permits eventually granted is at least `M − W`.
//!
//! In a finished (quiescent) execution "eventually" has already happened, so
//! both conditions become simple arithmetic over the execution summary.

/// Summary of one finished controller execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecutionSummary {
    /// The permit budget `M`.
    pub m: u64,
    /// The waste bound `W`.
    pub w: u64,
    /// Number of requests granted a permit.
    pub granted: u64,
    /// Number of requests rejected.
    pub rejected: u64,
    /// Number of requests submitted that never received an answer (must be 0
    /// in a quiescent execution).
    pub unanswered: u64,
}

/// A violated correctness condition.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// More than `M` permits were granted.
    Safety {
        /// Permits granted.
        granted: u64,
        /// The budget that was exceeded.
        m: u64,
    },
    /// A request was rejected even though fewer than `M − W` permits were
    /// granted.
    Liveness {
        /// Permits granted.
        granted: u64,
        /// The minimum required once a reject is issued.
        required: u64,
    },
    /// Some requests never received an answer.
    Unanswered {
        /// Number of unanswered requests.
        count: u64,
    },
    /// More answers than requests: `granted + rejected` exceeds the number of
    /// submitted requests. Either a controller answered a request twice or a
    /// driver lost count — both are accounting bugs that would otherwise hide
    /// behind a saturating `unanswered = submitted − answered` computation.
    OverAnswered {
        /// Permits granted.
        granted: u64,
        /// Requests rejected.
        rejected: u64,
        /// Requests actually submitted.
        submitted: u64,
    },
    /// A §5 guarantee failed at a quiescent point: the first
    /// [`InvariantError`](crate::InvariantError), rendered.
    Invariant(String),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Safety { granted, m } => {
                write!(f, "safety violated: granted {granted} permits with budget M={m}")
            }
            Violation::Liveness { granted, required } => write!(
                f,
                "liveness violated: a request was rejected but only {granted} permits were granted (need at least {required})"
            ),
            Violation::Unanswered { count } => {
                write!(f, "{count} requests never received an answer")
            }
            Violation::OverAnswered {
                granted,
                rejected,
                submitted,
            } => write!(
                f,
                "accounting violated: {granted} grants + {rejected} rejects exceed the {submitted} submitted requests"
            ),
            Violation::Invariant(text) => f.write_str(text),
        }
    }
}

impl ExecutionSummary {
    /// Checks the (M, W)-Controller correctness conditions over this summary.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition.
    pub fn check(&self) -> Result<(), Violation> {
        if self.unanswered > 0 {
            return Err(Violation::Unanswered {
                count: self.unanswered,
            });
        }
        if self.granted > self.m {
            return Err(Violation::Safety {
                granted: self.granted,
                m: self.m,
            });
        }
        if self.rejected > 0 {
            let required = self.m.saturating_sub(self.w);
            if self.granted < required {
                return Err(Violation::Liveness {
                    granted: self.granted,
                    required,
                });
            }
        }
        Ok(())
    }

    /// The "waste": permits that were neither granted nor can ever be (only
    /// meaningful once a reject has been issued).
    pub fn waste(&self) -> u64 {
        self.m.saturating_sub(self.granted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_when_no_reject_and_under_budget() {
        let s = ExecutionSummary {
            m: 10,
            w: 3,
            granted: 4,
            rejected: 0,
            unanswered: 0,
        };
        assert!(s.check().is_ok());
        assert_eq!(s.waste(), 6);
    }

    #[test]
    fn safety_violation_detected() {
        let s = ExecutionSummary {
            m: 10,
            w: 3,
            granted: 11,
            rejected: 0,
            unanswered: 0,
        };
        assert!(matches!(s.check(), Err(Violation::Safety { .. })));
    }

    #[test]
    fn liveness_violation_detected() {
        let s = ExecutionSummary {
            m: 10,
            w: 3,
            granted: 5,
            rejected: 1,
            unanswered: 0,
        };
        assert!(matches!(s.check(), Err(Violation::Liveness { .. })));
    }

    #[test]
    fn liveness_satisfied_at_exact_boundary() {
        let s = ExecutionSummary {
            m: 10,
            w: 3,
            granted: 7,
            rejected: 5,
            unanswered: 0,
        };
        assert!(s.check().is_ok());
    }

    #[test]
    fn unanswered_requests_detected() {
        let s = ExecutionSummary {
            m: 10,
            w: 3,
            granted: 7,
            rejected: 0,
            unanswered: 2,
        };
        assert!(matches!(s.check(), Err(Violation::Unanswered { .. })));
    }

    #[test]
    fn violations_display_readably() {
        let v = Violation::Safety { granted: 11, m: 10 };
        assert!(v.to_string().contains("safety"));
        let v = Violation::Liveness {
            granted: 3,
            required: 7,
        };
        assert!(v.to_string().contains("liveness"));
        let v = Violation::OverAnswered {
            granted: 6,
            rejected: 5,
            submitted: 10,
        };
        assert!(v.to_string().contains("accounting"));
    }
}
