//! What the client saw, and whether it is what the server says it did.

use crate::server::ServerStats;
use crate::wire::Outcome;

/// Client-side counts of one connection's life.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests written to the socket.
    pub sent: u64,
    /// `ticket` replies.
    pub tickets: u64,
    pub granted: u64,
    pub rejected: u64,
    pub refused: u64,
    /// `overloaded` error frames (the reader thread's, never the engine's).
    pub overloaded: u64,
    /// Every other error frame.
    pub errors: u64,
    /// Final outcomes for a tag that already had one, or for no known tag.
    pub duplicates: u64,
    /// Frames the scanner could not read.
    pub malformed: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Granted => self.granted += 1,
            Outcome::Rejected => self.rejected += 1,
            Outcome::Refused => self.refused += 1,
        }
    }

    /// Requests with a final outcome.
    pub fn answered(&self) -> u64 {
        self.granted + self.rejected + self.refused
    }

    /// Requests that did not get a usable answer: counted errors, sheds, and
    /// whatever was sent and never heard of again.
    pub fn failed(&self) -> u64 {
        self.sent - self.answered().min(self.sent)
    }

    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.tickets += other.tickets;
        self.granted += other.granted;
        self.rejected += other.rejected;
        self.refused += other.refused;
        self.overloaded += other.overloaded;
        self.errors += other.errors;
        self.duplicates += other.duplicates;
        self.malformed += other.malformed;
    }

    /// The output checks of one serve run, as a list of what is wrong
    /// (empty when everything reconciles): every tag got exactly one final
    /// outcome or one counted error; the client's counts equal the server's
    /// `stats` frame; the controller kept its safety and liveness
    /// conditions (`granted ≤ M`, no reject before `M − W` grants).
    pub fn reconcile(&self, stats: &ServerStats, m: u64, w: u64) -> Vec<String> {
        let mut wrong = Vec::new();
        let mut expect = |what: &str, client: u64, server: u64| {
            if client != server {
                wrong.push(format!(
                    "{what}: client saw {client}, server reports {server}"
                ));
            }
        };
        expect("submitted (tickets)", self.tickets, stats.submitted);
        expect("granted", self.granted, stats.granted);
        expect("rejected", self.rejected, stats.rejected);
        expect("refused", self.refused, stats.refused);
        expect("protocol_errors", self.errors, stats.protocol_errors);
        expect("dropped_frames", 0, stats.dropped_frames);
        let accounted = self.answered() + self.overloaded + self.errors;
        if accounted != self.sent {
            wrong.push(format!(
                "{} requests sent, {accounted} accounted for (answers + counted errors)",
                self.sent
            ));
        }
        if self.duplicates + self.malformed > 0 {
            wrong.push(format!(
                "{} duplicate or untagged outcomes, {} unreadable frames",
                self.duplicates, self.malformed
            ));
        }
        if stats.granted > m {
            wrong.push(format!("safety: granted {} > M = {m}", stats.granted));
        }
        if stats.rejected > 0 && stats.granted < m.saturating_sub(w) {
            wrong.push(format!(
                "liveness: {} rejects with only {} < M − W = {} grants",
                stats.rejected,
                stats.granted,
                m.saturating_sub(w)
            ));
        }
        wrong
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> (Tally, ServerStats) {
        let tally = Tally {
            sent: 100,
            tickets: 98,
            granted: 97,
            rejected: 0,
            refused: 1,
            overloaded: 1,
            errors: 1,
            ..Tally::default()
        };
        let stats = ServerStats {
            submitted: 98,
            granted: 97,
            refused: 1,
            protocol_errors: 1,
            ..ServerStats::default()
        };
        (tally, stats)
    }

    #[test]
    fn matching_counts_reconcile() {
        let (tally, stats) = clean();
        assert_eq!(tally.reconcile(&stats, 1000, 10), Vec::<String>::new());
        assert_eq!(tally.answered(), 98);
        assert_eq!(tally.failed(), 2);
    }

    #[test]
    fn every_disagreement_is_named() {
        let (tally, mut stats) = clean();
        stats.granted = 96;
        stats.dropped_frames = 2;
        let wrong = tally.reconcile(&stats, 1000, 10);
        assert_eq!(wrong.len(), 2, "{wrong:?}");
        assert!(wrong[0].starts_with("granted") && wrong[1].starts_with("dropped_frames"));

        let (mut tally, stats) = clean();
        tally.sent = 101; // one request vanished without an answer or error
        assert!(tally.reconcile(&stats, 1000, 10)[0].contains("101 requests sent"));
        tally.sent = 100;
        tally.duplicates = 1;
        assert!(tally.reconcile(&stats, 1000, 10)[0].contains("duplicate"));
    }

    #[test]
    fn safety_and_liveness_are_checked_against_the_budget() {
        let (tally, stats) = clean();
        assert!(tally.reconcile(&stats, 96, 10)[0].starts_with("safety"));
        let (mut tally, mut stats) = clean();
        tally.rejected = 1;
        tally.sent += 1;
        stats.rejected = 1;
        // 97 grants < M − W = 990: a reject this early breaks liveness.
        assert!(tally.reconcile(&stats, 1000, 10)[0].starts_with("liveness"));
        assert!(tally.reconcile(&stats, 100, 10).is_empty());
    }
}
