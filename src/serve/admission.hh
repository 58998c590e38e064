/**
 * @file
 * Deadline-aware admission control for the dphls_serve daemon.
 *
 * Policy half of the mechanism/policy split with
 * StreamPipeline::reserveCompletion(): the pipeline books a batch into
 * its live backlog and reports the batch's modeled completion time,
 * and this policy decides whether a request with a deadline should be
 * admitted at all (the reservation commits on submit or releases on
 * reject). A request whose estimate already exceeds its budget is
 * rejected at submit (protocol RejectReason::DeadlineUnmeetable) —
 * accounted separately from deadline *misses*, which are requests that
 * were admitted and then completed late. Rejecting up front keeps
 * doomed work out of the dispatch queues, so it cannot delay requests
 * whose deadlines are still meetable.
 */

#ifndef DPHLS_SERVE_ADMISSION_HH
#define DPHLS_SERVE_ADMISSION_HH

namespace dphls::serve {

/** Admission-control knobs (daemon flags map straight onto these). */
struct AdmissionPolicy
{
    /** Master switch; off admits everything with a deadline. */
    bool enabled = true;
    /**
     * Estimate tolerance: admit while estimate <= slack * budget.
     * 1.0 trusts the cost model exactly; values above 1 admit
     * optimistically (the model over-estimates under contention because
     * the backlog signal counts queued work it may share capacity
     * with), values below 1 reserve headroom.
     */
    double slack = 1.0;
};

/**
 * True when a request estimated at @p estimate_seconds should be
 * admitted against a deadline budget of @p budget_seconds (seconds from
 * now; <= 0 means the request carries no deadline and is always
 * admitted — quota and dispatchability are checked elsewhere).
 */
inline bool
admits(const AdmissionPolicy &policy, double estimate_seconds,
       double budget_seconds)
{
    if (!policy.enabled || budget_seconds <= 0)
        return true;
    return estimate_seconds <= policy.slack * budget_seconds;
}

} // namespace dphls::serve

#endif // DPHLS_SERVE_ADMISSION_HH
