#include "slo/admission.h"

namespace coserve {

AdmissionVerdict
AdmissionController::assess(RequestClass cls, Time arrival,
                            Time deadline,
                            Time predictedCompletion) const
{
    // Best-effort is the leftover-capacity class (and the downgrade
    // target): there is nothing below it, so it is never shed — a
    // downgraded request that kept its original deadline for
    // violation accounting must not be re-judged into a rejection.
    if (!cfg_.enabled || !sloTracked(cls) ||
        cls == RequestClass::BestEffort || deadline == kTimeNever)
        return AdmissionVerdict::Admit;

    // Scale the *budget*, not the absolute deadline: slack expresses
    // tolerance for estimate error relative to how much time the
    // request was given in the first place.
    const Time budget = deadline > arrival ? deadline - arrival : 0;
    const Time allowed =
        arrival + static_cast<Time>(static_cast<double>(budget) *
                                    cfg_.slack);
    if (predictedCompletion <= allowed)
        return AdmissionVerdict::Admit;

    return cfg_.downgrade ? AdmissionVerdict::Downgrade
                          : AdmissionVerdict::Reject;
}

} // namespace coserve
