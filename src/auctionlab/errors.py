"""Exception types shared across the package, and the helpers that word their messages."""


def _quoted(text: str) -> str:
    """repr(text), with the middle of a long text cut out so an error line stays short."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:20] + '...' + text[-20:]!r} ({len(text)} characters)"


def _at_least(**bounds: tuple[int, int]) -> None:
    """Refuse the first parameter, in argument order, whose value is below its bound."""
    for name, (value, low) in bounds.items():
        if value < low:
            raise InvalidParams(f"{name} must be >= {low}, got {value}")


class AuctionError(Exception):
    """Base class for all auctionlab errors."""


class UnknownId(AuctionError):
    """An action or query referenced a keyword or bidder not in the instance."""


class SameBidder(AuctionError):
    """An assignment named the same bidder as both first- and second-price."""


class OrderingViolation(AuctionError):
    """The first-price bidder's effective bid is below the second-price bidder's."""


class NoPositiveBids(AuctionError):
    """The budget-to-bid ratio is undefined when every bid is zero."""


class TooLarge(AuctionError):
    """An exact search exceeded its node budget."""


class PolicyViolation(AuctionError):
    """An online policy, or the action list `execute` runs, broke the driver contract."""


class NonDeterministicPolicy(AuctionError):
    """The adaptive adversary only plays against deterministic policies."""


class InvalidParams(AuctionError):
    """Generator or gadget parameters are out of range."""


class NotAPartition(AuctionError):
    """The provided index set does not certify an equal-sum half partition."""


class UnresolvableSecondBidder(AuctionError):
    """No bidder realizes the transformed bid needed as a second-price partner."""


class InfeasibleTrace(AuctionError):
    """A trace does not replay on the instance it claims to solve."""


class UnknownSuite(AuctionError):
    """Experiment suite name not recognized."""


class EmptyStream(AuctionError):
    """Summary statistics need at least one record."""
