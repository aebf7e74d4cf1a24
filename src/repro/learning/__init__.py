"""Learning substrate.

The paper's devices are "Learning" and "Cognitive" (sec III): they learn
from the environment, emulate humans, and build predictive models of the
attribute relationships among discovered devices (sec IV).  This package
provides the online learners those behaviours are built from, plus the
adversarial-ML defenses of refs [17, 18].

Model sophistication is deliberately modest (running statistics,
perceptron, naive Bayes, bucketed emulation): the paper's risks — bad
data, imperfect human demonstrations, poisoning — are properties of the
*learning loop*, which these reproduce exactly.
"""
