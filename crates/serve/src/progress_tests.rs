//! Tests of the [`ProgressStream`](crate::ProgressStream) API: the
//! lifecycle view of the trace ring as a subscriber sees it: the stream
//! side of the ring's rules, whose collector side `trace::tests` pins.

mod tests {
    use crate::telemetry::{PlacementTarget, Telemetry};
    use crate::trace::tests::{event, queued};
    use crate::trace::{JobStage, ProgressStream, TraceEventKind};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn publishes_in_order_with_monotone_seq() {
        let t = Arc::new(Telemetry::new(8));
        let stream = ProgressStream::new(Arc::clone(&t));
        let target = PlacementTarget::Ndp;
        t.publish(queued(1));
        t.publish(event(1, TraceEventKind::ExecStart { target }));
        t.publish(event(
            1,
            TraceEventKind::TicketFulfill {
                ok: true,
                cached: false,
            },
        ));
        let events = stream.drain();
        let labels: Vec<&str> = events.iter().map(|e| e.stage.label()).collect();
        assert_eq!(labels, ["queued", "running", "done"]);
        assert!(events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert_eq!(stream.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_oldest_and_counts() {
        let t = Arc::new(Telemetry::new(2));
        let stream = ProgressStream::new(Arc::clone(&t));
        for i in 0..5 {
            t.publish(queued(i));
        }
        assert_eq!(stream.dropped(), 3);
        // The freshest events survive.
        let seqs: Vec<u64> = stream.drain().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [3, 4]);
    }

    #[test]
    fn blocking_next_wakes_on_publish_and_ends_on_close() {
        // Whichever way the consumer interleaves with the publish and
        // the close, it reads the one event and then the end.
        let t = Arc::new(Telemetry::new(4));
        let stream = ProgressStream::new(Arc::clone(&t));
        let consumer = {
            let stream = stream.clone();
            thread::spawn(move || (stream.next(), stream.next()))
        };
        t.publish(queued(7));
        t.ring().close();
        let (first, end) = consumer.join().unwrap();
        assert_eq!(first.unwrap().stage, JobStage::Queued { shard: 0 });
        assert!(end.is_none(), "closed + drained ⇒ end of stream");
    }

    #[test]
    fn publishing_without_subscribers_is_a_gated_no_op() {
        let t = Arc::new(Telemetry::new(4));
        t.publish(queued(1)); // nobody listening: skipped
        let stream = ProgressStream::new(Arc::clone(&t));
        assert!(stream.is_empty(), "pre-subscription event was not stored");
        t.publish(queued(2));
        assert_eq!(stream.len(), 1);
        let clone = stream.clone();
        drop(stream);
        t.publish(queued(3)); // the clone keeps the stream attached
        assert_eq!(clone.drain().len(), 2);
        drop(clone);
        t.publish(queued(4)); // last handle gone: skipped
        assert!(!t.traced());
        let late = ProgressStream::new(t);
        assert!(late.is_empty(), "nothing published while unsubscribed");
        assert_eq!(late.dropped(), 0);
    }

    #[test]
    fn last_unsubscribe_clears_undelivered_events() {
        let t = Arc::new(Telemetry::new(8));
        let stream = ProgressStream::new(Arc::clone(&t));
        t.publish(queued(1));
        t.publish(queued(2));
        drop(stream); // last subscriber out with 2 events undelivered
        let late = ProgressStream::new(t);
        assert!(
            late.is_empty(),
            "a new subscription window must not see stale events"
        );
        assert_eq!(late.dropped(), 2, "discarded events count as drops");
    }

    #[test]
    fn next_timeout_expires_without_events() {
        let stream = ProgressStream::new(Arc::new(Telemetry::new(4)));
        assert!(stream.next_timeout(Duration::from_millis(10)).is_none());
    }
}
