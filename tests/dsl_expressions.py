"""Hypothesis strategy for dsl expression text, shared by the compiler's
oracle tests and the command-line fuzz tests: expressions from the grammar
(the leaves given, the six functions, + - * / ^ and unary minus) and, now
and then, a malformed one."""

from hypothesis import strategies as st

FUNCTIONS = ("ln", "exp", "sin", "cos", "sqrt", "abs")
NUMBERS = ("0", "1", "2", "0.5", "3.7", "1e-300", "1e300", "1e308")
BROKEN = ("", "(((", "t +", "q", "1e400", "sin t", "2 ^", "()")
# leaves of a Lagrangian L(t, u, v, w), the variables drawn most often
LAGRANGIAN_LEAVES = ("t", "u", "v", "w") * 2 + ("pi", "e") + NUMBERS


def expressions(leaves, broken=BROKEN):
    """dsl expressions over ``leaves``, or now and then one of ``broken``."""
    def grow(inner):
        return (st.tuples(inner, st.sampled_from("+-*/^"), inner).map(
                    lambda x: f"({x[0]}) {x[1]} ({x[2]})")
                | st.tuples(st.sampled_from(FUNCTIONS), inner).map(
                    lambda x: f"{x[0]}({x[1]})")
                | inner.map(lambda x: f"-{x}"))

    well_formed = st.recursive(st.sampled_from(leaves), grow, max_leaves=6)
    return well_formed | st.sampled_from(broken) if broken else well_formed
