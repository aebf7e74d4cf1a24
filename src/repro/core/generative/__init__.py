"""The generative policy architecture (paper sec IV).

"a human manager provides two types of information to each device.  The
first type ... specifies what the device can expect to see in its
environment, in particular the other types of devices that would be
encountered and their attributes.  The second type ... provides directions
indicating what kinds of policies it should generate as new devices are
discovered ...  The former is specified by means of an interaction graph,
the latter by means of a policy generator grammar or a policy template."
"""
